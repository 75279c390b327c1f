"""The vectorized %.17g writer and reader against Python's formatting,
``float`` and ``np.loadtxt``, bit for bit."""

import io

import numpy as np
import pytest

from spectral_reach import floattext, layouts, spectral
from spectral_reach.commute import commute
from spectral_reach.envgrid import discretize_continuous
from spectral_reach.graph import build_graph
from spectral_reach.spectral import eig_sym, laprep, ra_laprep


def reference(values, lead=None) -> bytes:
    """Python's formatting of the rows: %d for ``lead``, %.17g for ``values``."""
    lead = np.zeros((len(values), 0), np.int64) if lead is None else lead
    return b"".join(b",".join([b"%d" % i for i in n] + [b"%.17g" % v for v in row]) + b"\n"
                    for n, row in zip(lead.tolist(), values.tolist()))


def written(values, lead=None, chunk=8) -> bytes:
    return b"".join(floattext.csv_rows(values, lead, chunk))


def column_bytes(v: np.ndarray) -> bytes:
    """%.17g of each value on its own line, as a one-column CSV."""
    return b"\n".join(map(b"%.17g".__mod__, v.tolist())) + b"\n"


def loadtxt(text: bytes, ints: int, fields: int):
    table = np.loadtxt(io.StringIO(text.decode()), delimiter=",", comments=None, ndmin=1,
                       dtype=[("i", np.int64, ints), ("v", np.float64, fields - ints)])
    return table["i"], table["v"]


def read(text: bytes, ints: int, fields: int):
    return floattext.read_csv(io.BytesIO(text), ints, fields)


def same_bits(a, b) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def adversarial() -> np.ndarray:
    """Powers of two, subnormals, signed zeros, both neighbours of every 10^k,
    the extremes of the format, and exact 17-digit rounding ties."""
    tiny = np.finfo(float).smallest_subnormal
    values = [0.0, -0.0, tiny, -tiny, 2 * tiny, 1e-320, 2.2250738585072009e-308,
              np.finfo(float).tiny, np.finfo(float).max, -np.finfo(float).max,
              np.inf, -np.inf, np.nan, 1e-5, 1e-4, 9.9999999999999995e-05, 0.00010000000000000001,
              1e16, 1e17, 99999999999999999.0, 0.1, 0.5, 1.0, 2.0]
    values += [2.0 ** e for e in range(-1074, 1024)]
    for k in range(-323, 309):
        p = float(f"1e{k}")
        values += [np.nextafter(p, 0.0), p, np.nextafter(p, np.inf)]
    # exactly halfway between two 17-digit decimals: 18 digits ending in 5
    rng = np.random.default_rng(17)
    values += list(rng.integers(10 ** 15, 2 ** 51, 200) + rng.choice([0.25, 0.75], 200))
    values += list(rng.integers(10 ** 14, 2 ** 47, 200) + rng.choice([0.125, 0.375], 200))
    values = np.array(values)
    return np.concatenate([values, -values])


class TestWriter:
    def test_ten_million_seeded_values_across_every_exponent(self):
        rng = np.random.default_rng(2027)
        for chunk in range(20):
            if chunk % 5 == 0:
                # every bit pattern alike: all exponents, subnormals, infinities and NaNs
                v = rng.integers(0, 2 ** 64, 500_000, dtype=np.uint64).view(np.float64)
            else:
                # decimal exponents alike across the two-digit ones, where the fast path
                # decides all but ties
                v = rng.standard_normal(500_000) * 10.0 ** rng.uniform(-99, 99, 500_000)
            assert written(v[:, None], chunk=1 << 14) == column_bytes(v), chunk

    def test_adversarial_values(self):
        v = adversarial()
        assert written(v[:, None], chunk=1 << 14) == column_bytes(v)

    def test_rounding_ties_are_left_to_percent(self):
        ties = np.array([1234567890123456.25, 123456789012345.125, 1000000000000000.75])
        assert column_bytes(ties) == (b"1234567890123456.2\n123456789012345.12\n"
                                      b"1000000000000000.8\n")
        slow = floattext._value_cells(ties)[-1]
        assert slow.all()
        assert written(ties[:, None]) == column_bytes(ties)

    def test_leading_integers_and_rows_of_every_width(self):
        rng = np.random.default_rng(3)
        for c in (0, 1, 2, 9, 40):
            v = rng.standard_normal((30, c))
            lead = rng.integers(-10 ** 7, 10 ** 7, (30, 3))
            lead[0] = [0, -1, 999999]
            lead[1] = [10 ** 6, -(2 ** 53 - 1), 2 ** 53 - 1]
            assert written(v, lead) == reference(v, lead)

    def test_chunks_of_rows(self):
        v = np.random.default_rng(4).standard_normal((21, 5))
        chunks = list(floattext.csv_rows(v, None, 4))
        assert [c.count(b"\n") for c in chunks] == [4, 4, 4, 4, 4, 1]
        assert b"".join(chunks) == reference(v)


def bundled_and_zoo_matrices():
    """The d = n embeddings of both kinds and both exact commute matrices of
    every bundled map and zoo graph."""
    mazes = [layouts.zoo_maze(name) for name in layouts.ZOO_NAMES]
    for name in sorted(layouts.bundled_files()):
        maze = layouts.load_bundled(name)
        if name.startswith("continuous"):
            maze = discretize_continuous(maze, 1)
        mazes.append(maze)
    for maze in mazes:
        g = build_graph(maze)
        basis = eig_sym(g.dense_laplacian())
        if g.n_states > 1 and not spectral.tied(basis.eigenvalues)[0]:
            yield "embedding", ra_laprep(basis, g.n_states).vectors
            yield "embedding", laprep(basis, g.n_states).vectors
            for method in ("solve", "pseudo-inverse"):
                yield "commute", commute(g, method).values


def test_fast_paths_decide_bundled_and_zoo_values(monkeypatch):
    parsed = []
    monkeypatch.setattr(floattext, "float", lambda token: parsed.append(token) or
                        float(token), raising=False)
    seen = set()
    for kind, values in bundled_and_zoo_matrices():
        seen.add(kind)
        slow = floattext._value_cells(values.ravel())[-1]
        assert slow.mean() <= 1e-3
        text = written(values)
        assert text == reference(values)
        if kind == "embedding":
            parsed.clear()
            back = read(text, 0, values.shape[1])
            assert same_bits(back[1], values)
            assert len(parsed) <= 1e-3 * values.size
    assert seen == {"embedding", "commute"}


class TestReader:
    def test_round_trip_is_bit_identical_to_the_values_and_to_loadtxt(self):
        rng = np.random.default_rng(5)
        v = rng.standard_normal((300, 40)) * 10.0 ** rng.uniform(-320, 308, (300, 40))
        v[rng.random(v.shape) < 0.05] = 0.0
        v[rng.random(v.shape) < 0.05] = -0.0
        adv = adversarial()
        adv = adv[np.isfinite(adv)][:v.size]
        v.ravel()[:len(adv)] = adv
        lead = np.column_stack([np.arange(300), rng.integers(-99, 10 ** 6, (300, 2))])
        text = written(v, lead)
        ints, values = read(text, 3, 43)
        want_ints, want = loadtxt(text, 3, 43)
        assert np.array_equal(ints, lead) and np.array_equal(ints, want_ints)
        assert same_bits(values, v) and same_bits(values, want)

    @pytest.mark.parametrize("token", [
        b"12345678901234567890", b"123456789012345678901234567890.5", b"1e-320", b"4.9e-324",
        b"1e+99999", b"-1e+400", b"0e-99999", b"9007199254740993", b"0.1e+1", b"-0",
        b"000012.5000", b"2.4703282292062328e-324", b"1.7976931348623158e+308",
    ])
    def test_undecided_tokens_in_the_grammar_go_to_float(self, token):
        text = b"0,1,1," + token + b"\n1,2,1,0.5\n"
        ints, values = read(text, 3, 4)
        assert same_bits(values, loadtxt(text, 3, 4)[1])
        assert same_bits(values[0], np.array([float(token)]))

    @pytest.mark.parametrize("token", [
        b"1E5", b"+1", b"inf", b"-inf", b"nan", b"1.", b".5", b"1e5", b"1e+", b"1.2.3",
        b"1-2", b"--1", b"-", b"", b" 1", b"1 ", b"0x10", b"1_0", b"1e+5e+5", b"1.5\r",
    ])
    def test_tokens_outside_the_grammar_go_to_loadtxt(self, token, tmp_path):
        text = b"0,1,1," + token + b"\n1,2,1,0.5\n"
        assert read(text, 3, 4) is None
        path = tmp_path / "e.csv"
        path.write_bytes(b"state_index,x,y,e2\n" + text)
        try:
            want = spectral._loadtxt_table(path)
        except spectral.InputError as exc:
            with pytest.raises(spectral.InputError) as info:
                spectral.embedding_from_csv(path)
            assert str(info.value) == str(exc)
        else:
            got, _ = spectral.embedding_from_csv(path)
            assert same_bits(got.vectors, want[1])

    @pytest.mark.parametrize("text", [
        b"0,1,1\n", b"0,1,1,0.5,0.5\n", b"0,1,1,0.5\n1,2,1\n", b"0,1,1,0.5,\n",
        b"0,1,1,0.5\n\n", b"0,1.5,1,0.5\n", b"0,1e+5,1,0.5\n", b"123456789,1,1,0.5\n",
        b"0,1,1,0.5\n1,2,1,0.5,0.5,1,2,1\n",
    ])
    def test_rows_outside_the_grammar_go_to_loadtxt(self, text):
        assert read(text, 3, 4) is None

    def test_blocks_of_any_size_and_a_last_line_without_newline(self, monkeypatch):
        rng = np.random.default_rng(6)
        v = rng.standard_normal((50, 7)) * 10.0 ** rng.integers(-8, 8, (50, 7))
        text = written(v, np.column_stack([np.arange(50), np.ones((50, 2), int)]))
        for block in (1, 7, 100, 1 << 20):
            monkeypatch.setattr(floattext, "READ_BLOCK", block)
            for body in (text, text[:-1]):
                ints, values = read(body, 3, 10)
                assert same_bits(values, v) and np.array_equal(ints[:, 0], np.arange(50))
        assert [a.shape for a in read(b"", 3, 10)] == [(0, 3), (0, 7)]

