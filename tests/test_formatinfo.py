"""BCH(15,5) format words and the flip graph."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qrmirror import formatinfo as fi


def oracle_poly_mod(value, generator):
    """Binary polynomial remainder by explicit long division."""
    glen = generator.bit_length()
    while value.bit_length() >= glen:
        value ^= generator << (value.bit_length() - glen)
    return value


def test_encode_zero():
    assert fi.bch_encode(0) == 0


def test_codewords_distinct_and_32():
    words = fi.codewords()
    assert len(words) == 32
    assert len(set(words)) == 32


def test_codewords_divisible_by_generator():
    for info in range(32):
        assert oracle_poly_mod(fi.bch_encode(info), fi.GENERATOR) == 0


def test_codewords_systematic():
    for info in range(32):
        word = fi.bch_encode(info)
        assert word >> 10 == info
        # parity is the division remainder of info * x^10
        assert word & 0x3FF == oracle_poly_mod(info << 10, fi.GENERATOR)
    for info in (-1, 32):  # 5 information bits
        with pytest.raises(ValueError, match="outside 0..31"):
            fi.bch_encode(info)


def test_from_info_reads_the_32_words_and_nothing_else():
    for info in range(32):
        word = fi.FormatWord.from_info(info)
        assert word == fi.FormatWord(fi.EC_NAME[info >> 3], info & 7)
        assert word.info == info and fi.FormatWord.from_info(info) is word
    for info in (-1, -32, 32, 255):  # a bare tuple index would take -1 and -32
        with pytest.raises(KeyError):
            fi.FormatWord.from_info(info)


def test_known_on_grid_word_for_level_l_mask0():
    # reference-encoder value for the (L, 0) format
    word = fi.FormatWord("L", 0)
    assert fi.word_bits(word.on_grid) == "111011111000100"


def test_minimum_distance_is_7():
    words = fi.codewords()
    dmin = min(
        (a ^ b).bit_count()
        for i, a in enumerate(words)
        for b in words[i + 1 :]
    )
    assert dmin == 7


def test_decode_exhaustive_within_3_bits():
    # all 32 * (1 + 15 + 105 + 455) corrupted words decode to their source
    for info in range(32):
        word = fi.bch_encode(info)
        for weight in range(4):
            for positions in itertools.combinations(range(15), weight):
                error = 0
                for p in positions:
                    error |= 1 << p
                assert fi.bch_decode(word ^ error) == (info, weight)


def test_decode_fails_beyond_radius_3():
    balls = set()
    for info in range(32):
        word = fi.bch_encode(info)
        for weight in range(4):
            for positions in itertools.combinations(range(15), weight):
                e = 0
                for p in positions:
                    e |= 1 << p
                balls.add(word ^ e)
    outside = next(w for w in range(1 << 15) if w not in balls)
    assert fi.bch_decode(outside) is None


def reference_bch_decode(word):
    """The nearest-codeword scan the ball lookup replaced."""
    for info, cw in enumerate(fi.codewords()):
        d = (cw ^ word).bit_count()
        if d <= 3:
            return info, d
    return None


def test_decode_matches_codeword_scan_on_every_word():
    decoded = [fi.bch_decode(w) for w in range(1 << 15)]
    assert decoded == [reference_bch_decode(w) for w in range(1 << 15)]
    for word in (-1, 1 << 15):
        with pytest.raises(ValueError):
            fi.bch_decode(word)


def test_format_mask_involution():
    for w in (0, 0x5412, 0x7FFF, 0x1234):
        assert fi.apply_format_mask(fi.apply_format_mask(w)) == w
    assert fi.apply_format_mask(0) == fi.FORMAT_XOR


def test_reverse_word():
    assert fi.reverse_word(int("100101010100001", 2)) == int("100001010101001", 2)
    for w in (0, 1, 0x7FFF, 0x2E45):
        assert fi.reverse_word(fi.reverse_word(w)) == w


def ball_index(domain):
    """string -> (info, distance) over every string within 3 of a code in
    the domain, by the public decoder: on-grid strings are decoded after
    removing the published XOR pattern."""
    xor = fi.FORMAT_XOR if domain == "grid" else 0
    return {w ^ xor: hit for w in range(1 << 15) if (hit := fi.bch_decode(w)) is not None}


@pytest.mark.parametrize("domain", ["raw", "grid"])
def test_flip_graph_nodes_and_candidates(domain):
    graph = fi.build_flip_graph(domain)
    assert len(graph.nodes) == 32
    assert graph.candidate_shell_size == 14560
    assert graph.candidate_unique_size <= 14560
    with pytest.raises(ValueError, match="unknown domain"):  # the names are lowercase
        fi.build_flip_graph(domain.upper())


@pytest.mark.parametrize("domain", ["raw", "grid"])
def test_flip_graph_symmetric(domain):
    graph = fi.build_flip_graph(domain)
    index = ball_index(domain)
    for (a, b), edge in graph.edges.items():
        twin = graph.edges[(b, a)]
        assert twin.distance_straight <= 3 and edge.distance_straight <= 3
        # the reversed witness realizes the reversed edge
        rev = fi.reverse_word(edge.witness)
        ia, da = index[rev]
        ib, db = index[fi.reverse_word(rev)]
        assert (ia, ib) == (b, a)


def test_paper_pair_is_a_witness_in_the_grid_domain():
    a = int("100101010100001", 2)
    b = int("100001010101001", 2)
    assert fi.reverse_word(a) == b
    assert (a ^ b).bit_count() == 2
    assert a & fi.MIDDLE_BIT
    index = ball_index("grid")
    assert a in index and b in index
    # both strings live inside radius-3 balls, so the pair realizes an edge
    info_a, da = index[a]
    info_b, db = index[b]
    assert da <= 3 and db <= 3
    # in the on-grid domain the pair decodes to the M-level mask-7 code
    assert info_a == info_b == (fi.EC_BITS["M"] << 3 | 7)
    # in the raw domain the straight reading is out of correction range
    assert a not in ball_index("raw")


def test_selected_witness_properties():
    sel = fi.select_mirror_format()
    assert sel.witness_bits == "101100010001101"
    assert sel.witness_bits == sel.witness_bits[::-1]  # palindrome
    assert sel.witness & fi.MIDDLE_BIT
    assert sel.straight.ec_level == sel.mirrored.ec_level == "L"
    assert sel.straight.mask_id == sel.mirrored.mask_id == 3
    assert sel.distance_straight <= 3 and sel.distance_mirrored <= 3
    assert sel.distance_straight + sel.distance_mirrored == 4


def test_selected_witness_survives_dark_module_forcing():
    sel = fi.select_mirror_format()
    # the mirrored copy-2 read has its middle bit forced dark; with the
    # witness middle already 1 both orientations still decode identically
    forced = fi.reverse_word(sel.witness) | fi.MIDDLE_BIT
    decoded = fi.bch_decode(fi.apply_format_mask(forced))
    assert decoded is not None
    info, dist = decoded
    assert fi.FormatWord.from_info(info) == sel.mirrored
    assert dist <= 3


def test_dot_export():
    graph = fi.build_flip_graph("grid")
    dot = fi.flip_graph_dot(graph)
    assert dot.startswith("graph flip_grid {")
    assert dot.rstrip().endswith("}")
    assert '[label="00000"]' in dot
    assert dot.count("--") == sum(1 for (a, b) in graph.edges if a <= b)


def reference_reverse_word(word):
    """The bit-by-bit reversal loop the byte table replaced."""
    out = 0
    for _ in range(15):
        out = (out << 1) | (word & 1)
        word >>= 1
    return out


def reference_build_flip_graph(domain="grid"):
    """A separate walk over the ball for the flip graph."""
    index = ball_index(domain)
    edges = {}
    for witness, (a, da) in index.items():
        hit = index.get(reference_reverse_word(witness))
        if hit is None:
            continue
        b, db = hit
        candidate = fi.MirrorFormat(witness, fi.FormatWord.from_info(a),
                                    fi.FormatWord.from_info(b), da, db)
        best = edges.get((a, b))
        if best is None or (candidate.distance_straight + candidate.distance_mirrored,
                            candidate.witness) < (best.distance_straight + best.distance_mirrored,
                                                  best.witness):
            edges[(a, b)] = candidate
    shell = 32 * 455  # the C(15,3) shell around every code, 14560 strings
    unique = sum(1 for _, d in index.values() if d == 3)
    return fi.FlipGraph(domain, tuple(range(32)), edges, shell, unique)


def reference_select_mirror_format(domain="grid", ec_level="L"):
    """A separate walk over the ball for witness selection."""
    index = ball_index(domain)
    sym = fi.symmetric_masks()
    want_ec = fi.EC_BITS[ec_level]
    best = None
    best_key = None
    for witness, (a, da) in index.items():
        if not witness & fi.MIDDLE_BIT:
            continue
        hit = index.get(reference_reverse_word(witness))
        if hit is None:
            continue
        b, db = hit
        if (a >> 3) != want_ec or (b >> 3) != want_ec:
            continue
        if (a & 7) not in sym or (b & 7) not in sym:
            continue
        key = (da + db, 0 if a == b else 1, a & 7, witness)
        if best_key is None or key < best_key:
            best_key = key
            best = fi.MirrorFormat(
                witness,
                fi.FormatWord.from_info(a),
                fi.FormatWord.from_info(b),
                da,
                db,
            )
    if best is None:
        raise RuntimeError(
            f"no {ec_level}-level symmetric-mask witness in domain {domain!r}"
        )
    return best


def test_reverse_word_matches_loop_reference_on_every_word():
    assert [fi.reverse_word(w) for w in range(1 << 15)] == [
        reference_reverse_word(w) for w in range(1 << 15)]


@pytest.mark.parametrize("domain", ["raw", "grid"])
def test_shared_walk_matches_separate_walks(domain):
    graph, want = fi.build_flip_graph(domain), reference_build_flip_graph(domain)
    assert graph == want
    assert list(graph.edges) == list(want.edges)
    if domain == "grid":  # the one selection the construction makes
        assert fi.select_mirror_format.__wrapped__() == reference_select_mirror_format()


def test_selection_keeps_no_ball_alive():
    # selection walks the radius-3 ball's table and builds no view of it:
    # after selection only that ~0.26 MB table of shared tuples and the
    # small result stay resident
    script = (
        "import gc, tracemalloc\n"
        "import qrmirror.formatinfo as fi\n"
        "tracemalloc.start()\n"
        "fi.select_mirror_format()\n"
        "gc.collect()\n"
        "print(tracemalloc.get_traced_memory()[0])\n"
    )
    src = str(Path(fi.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, check=True, timeout=120)
    assert int(done.stdout) < 1 << 20
