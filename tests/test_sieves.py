"""Sieve tables against a trial-division oracle, Mertens sums, pretentious
distance, and the packed cache format (including corruption handling)."""

import inspect
import random
import struct
import tracemalloc
import zlib
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import mulab.sieves
from mulab.errors import (
    CacheChecksumError,
    CacheFormatError,
    CacheMagicError,
    CacheVersionError,
    ResourceBudgetError,
)
from mulab.sieves import (
    MobiusTable,
    _codes,
    _segments,
    euler_phi,
    load_cache,
    m_estimate,
    mertens,
    mertens_trace,
    pretentious_distance_sq,
    primes_up_to,
    save_cache,
    sieve_liouville,
    sieve_mobius,
    sieve_phi,
)
import sieve_oracle


def factorize(n):
    out = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def mu_oracle(n):
    f = factorize(n)
    if any(e > 1 for e in f.values()):
        return 0
    return (-1) ** len(f)


def lambda_oracle(n):
    return (-1) ** sum(factorize(n).values())


def phi_oracle(n):
    out = n
    for p in factorize(n):
        out = out // p * (p - 1)
    return out


# f(2k) from f(k) and k: the 2-adic rules that the sieves fill the even n by
TWO_ADIC = {
    "mu": lambda v, k: -v if k % 2 else 0,
    "lambda": lambda v, k: -v,
    "phi": lambda v, k: v if k % 2 else 2 * v,
}


class TestMobius:
    def test_definition_examples(self, mu_table):
        assert mu_table.value(1) == 1
        assert mu_table.value(12) == 0
        assert mu_table.value(30) == -1

    def test_primes_give_minus_one(self, mu_table):
        for p in primes_up_to(10 ** 4):
            assert mu_table.value(int(p)) == -1

    def test_full_oracle_small(self, mu_table):
        vals = mu_table.values(1, 10 ** 4 + 1)
        for n in range(1, 10 ** 4 + 1):
            assert vals[n - 1] == mu_oracle(n)

    def test_oracle_random_points(self, mu_table):
        rng = random.Random(53)
        vals = mu_table.weight_array()
        for _ in range(10 ** 4):
            n = rng.randrange(1, mu_table.n_max + 1)
            assert vals[n] == mu_oracle(n)

    def test_mobius_inversion(self, mu_table):
        vals = mu_table.weight_array()
        for n in range(1, 10 ** 4 + 1):
            total = sum(int(vals[d]) for d in range(1, n + 1) if n % d == 0)
            assert total == (1 if n == 1 else 0)

    def test_multiplicativity_spot(self, mu_table):
        import math

        rng = random.Random(59)
        done = 0
        while done < 200:
            a = rng.randrange(2, 1000)
            b = rng.randrange(2, 1000)
            if math.gcd(a, b) != 1:
                continue
            assert mu_table.value(a * b) == mu_table.value(a) * mu_table.value(b)
            done += 1


class TestMertens:
    def test_m_of_one(self, mu_table):
        assert mertens(mu_table, 1) == 1

    def test_m_of_ten(self, mu_table):
        assert mertens(mu_table, 10) == -1

    def test_outside_the_table_is_value_error(self):
        table = sieve_mobius(100)
        assert mertens(table, 100) == 1
        for n in (0, 101):
            with pytest.raises(ValueError):
                mertens(table, n)

    def test_an_empty_trace_asks_for_a_checkpoint(self):
        # no checkpoint lies outside the table, so the message says what is missing
        with pytest.raises(ValueError, match="^mertens_trace needs at least one checkpoint$"):
            mertens_trace(sieve_mobius(10), [])

    def test_trace_matches_cumsum_oracle(self, mu_table):
        vals = mu_table.values(1, 5001).astype(np.int64)
        csum = np.cumsum(vals)
        pts = [1, 2, 17, 100, 999, 5000]
        assert mertens_trace(mu_table, pts) == [
            (n, int(csum[n - 1])) for n in pts
        ]

    def test_known_decades(self, mu_table):
        assert dict(mertens_trace(mu_table, [10 ** 3, 10 ** 4, 10 ** 5, 10 ** 6])) \
            == {10 ** 3: 2, 10 ** 4: -23, 10 ** 5: -48, 10 ** 6: 212}

    def test_overall_pnt_trend(self, mu_table):
        # |M(N)|/N at 1e6 is strictly smaller than at 1e3
        tr = dict(mertens_trace(mu_table, [10 ** 3, 10 ** 6]))
        assert abs(tr[10 ** 6]) / 10 ** 6 < abs(tr[10 ** 3]) / 10 ** 3


class TestLiouvillePhi:
    def test_lambda_examples(self):
        lam = sieve_liouville(1000)
        assert lam.value(8) == -1
        assert lam.value(1) == 1

    def test_lambda_oracle_random(self):
        lam = sieve_liouville(10 ** 6)
        vals = lam.weight_array()
        rng = random.Random(61)
        for _ in range(10 ** 4):
            n = rng.randrange(1, 10 ** 6)
            assert vals[n] == lambda_oracle(n)

    def test_phi_examples(self):
        phi = sieve_phi(100)
        assert phi.value(1) == 1
        assert phi.value(10) == 4

    def test_phi_oracle(self):
        phi = sieve_phi(10 ** 4)
        for n in range(1, 10 ** 4 + 1):
            assert phi.value(n) == phi_oracle(n)
        for p in primes_up_to(10 ** 4):
            assert phi.value(int(p)) == int(p) - 1

    def test_phi_oracle_random_points(self):
        phi = sieve_phi(10 ** 6)
        rng = random.Random(63)
        for _ in range(10 ** 4):
            n = rng.randrange(1, 10 ** 6)
            assert phi.value(n) == phi_oracle(n)

    def test_euler_phi_equals_the_table(self):
        phi = sieve_phi(10 ** 4)
        assert [euler_phi(n) for n in range(1, 10 ** 4 + 1)] == phi.values[1:].tolist()

    def test_euler_phi_large(self):
        assert euler_phi(10 ** 9 + 7) == 10 ** 9 + 6  # prime
        assert euler_phi(2 ** 40) == 2 ** 39
        assert euler_phi(10 ** 7) == 4 * 10 ** 6  # 2^7 5^7
        assert euler_phi(2 * (10 ** 6 + 3) ** 2) == (10 ** 6 + 3) * (10 ** 6 + 2)
        with pytest.raises(ValueError):
            euler_phi(0)


class TestPretentious:
    def test_unimodular_constant_vanishes(self):
        assert pretentious_distance_sq(lambda p: 1.0, 0.0, 1000) == 0.0

    def test_mu_weights_double_prime_sum(self):
        got = pretentious_distance_sq(lambda p: -1.0, 0.0, 100)
        direct = 2 * sum(1.0 / p for p in primes_up_to(100))
        assert abs(got - direct) < 1e-12

    def test_monotone_in_x(self, mu_table):
        w = mu_table.weight_array().astype(float)
        prev = -1.0
        for x in (10, 100, 1000, 10 ** 4):
            v = pretentious_distance_sq(w, 0.0, x)
            assert v >= prev
            prev = v

    def test_domain_error(self):
        with pytest.raises(ValueError):
            pretentious_distance_sq(lambda p: 2.0, 0.0, 50)

    def test_grid_estimate_is_min(self):
        grid = [-1.0, 0.0, 1.0]
        best, best_t = m_estimate(lambda p: 1.0, grid, 500)
        assert best == 0.0 and best_t == 0.0


class TestPersistence:
    def test_round_trip_identity(self, tmp_path):
        table = sieve_mobius(10 ** 5)
        path = tmp_path / "mu.bin"
        save_cache(table, path)
        loaded = load_cache(path)
        assert loaded.n_max == table.n_max
        assert np.array_equal(loaded.packed, table.packed)
        assert loaded.checksum == table.checksum

    def test_rewrite_is_byte_identical(self, tmp_path):
        table = sieve_mobius(12345)
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_cache(table, p1)
        save_cache(table, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_written_bytes_and_mode(self, tmp_path):
        import os
        import struct
        import zlib

        table = sieve_mobius(1000)
        path = tmp_path / "mu.bin"
        save_cache(table, path)
        head = b"MUSV\x02" + struct.pack("<Q", 1000) + table.packed.tobytes()
        assert path.read_bytes() == head + struct.pack("<I", zlib.crc32(head))
        assert [p.name for p in tmp_path.iterdir()] == ["mu.bin"]
        umask = os.umask(0)
        os.umask(umask)
        assert path.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_save_copies_no_payload(self, tmp_path):
        table = sieve_mobius(4 * 10 ** 6)
        tracemalloc.start()
        try:
            save_cache(table, tmp_path / "mu.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.packed.nbytes / 2
        assert load_cache(tmp_path / "mu.bin").checksum == table.checksum

    def test_strided_payload_saves_the_same_bytes(self, tmp_path):
        table = sieve_mobius(1000)
        buf = np.zeros(2 * table.packed.size, dtype=np.uint8)
        buf[::2] = table.packed
        save_cache(table, tmp_path / "a.bin")
        save_cache(MobiusTable(1000, buf[::2]), tmp_path / "b.bin")
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_zero_n_max_is_format_error(self, tmp_path):
        # magic, version, n_max = 0 and the valid CRC of the empty payload
        path = tmp_path / "empty.bin"
        path.write_bytes(b"MUSV\x02" + struct.pack("<QI", 0, zlib.crc32(b"")))
        assert path.stat().st_size == 17
        with pytest.raises(CacheFormatError, match="n_max 0, a table needs n_max >= 1"):
            load_cache(path)

    def test_truncated_file_is_checksum_error(self, tmp_path):
        table = sieve_mobius(10 ** 4)
        path = tmp_path / "mu.bin"
        save_cache(table, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-10])
        with pytest.raises(CacheChecksumError):
            load_cache(path)

    def test_corrupted_payload_is_checksum_error(self, tmp_path):
        table = sieve_mobius(10 ** 4)
        path = tmp_path / "mu.bin"
        save_cache(table, path)
        blob = bytearray(path.read_bytes())
        blob[20] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheChecksumError, match="CRC mismatch"):
            load_cache(path)

    @pytest.mark.parametrize("n", [1, 65_537, 80_000, 99_999])
    def test_reserved_code_anywhere_is_format_error(self, tmp_path, n):
        # the CRC is valid; only the code-11 scan over the payload catches it
        table = sieve_mobius(10 ** 5)
        packed = table.packed.copy()
        packed[(n - 1) // 4] |= 0b11 << 2 * ((n - 1) % 4)
        path = tmp_path / "mu.bin"
        save_cache(MobiusTable(table.n_max, packed), path)
        with pytest.raises(CacheFormatError, match=f"reserved code 11 at n={n}$"):
            load_cache(path)

    @pytest.mark.parametrize("n", [4 * 2 ** 18, 4 * 2 ** 18 + 1, 1_999_999])
    def test_reserved_code_past_the_first_scan_step(self, tmp_path, n):
        # the scan reads 2^18 payload bytes (2^20 entries) a step
        table = sieve_mobius(2 * 10 ** 6)
        packed = table.packed.copy()
        packed[(n - 1) // 4] |= 0b11 << 2 * ((n - 1) % 4)
        path = tmp_path / "mu.bin"
        save_cache(MobiusTable(table.n_max, packed), path)
        with pytest.raises(CacheFormatError, match=f"reserved code 11 at n={n}$"):
            load_cache(path)

    def test_load_holds_one_copy_of_the_payload(self, tmp_path):
        table = sieve_mobius(4 * 10 ** 6)
        save_cache(table, tmp_path / "mu.bin")
        tracemalloc.start()
        try:
            loaded = load_cache(tmp_path / "mu.bin")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the file's bytes, which the table views, and the masks of two
        # scan steps of 2^18 bytes; a copy of the payload would add 10^6
        assert peak < table.packed.nbytes + 3 * 2 ** 18
        assert not loaded.packed.flags.writeable
        assert loaded.checksum == table.checksum
        assert np.array_equal(loaded.values(1, 10 ** 4), table.values(1, 10 ** 4))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOPE" + bytes(20))
        with pytest.raises(CacheMagicError):
            load_cache(path)

    def test_version_bump_names_versions(self, tmp_path):
        table = sieve_mobius(100)
        path = tmp_path / "mu.bin"
        save_cache(table, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 0x03
        path.write_bytes(bytes(blob))
        with pytest.raises(CacheVersionError, match="0x03.*0x02"):
            load_cache(path)

    @pytest.mark.parametrize("n_max", [1, 2, 3, 4, 97, 98, 99, 100])
    def test_every_truncation_bit_flip_and_version_is_refused(self, tmp_path, n_max):
        # n_max of every residue mod 4: a flip of n_max's low bits can keep
        # the payload length, so only the CRC over the header refuses it
        path = tmp_path / "mu.bin"
        save_cache(sieve_mobius(n_max), path)
        blob = path.read_bytes()
        bad = [blob[:cut] for cut in range(len(blob))]
        bad += [blob[:4] + bytes([v]) + blob[5:] for v in range(256) if v != blob[4]]
        for pos in range(len(blob)):
            for bit in range(8):
                flipped = bytearray(blob)
                flipped[pos] ^= 1 << bit
                bad.append(bytes(flipped))
        for data in bad:
            path.write_bytes(data)
            with pytest.raises(CacheFormatError):
                load_cache(path)

    def test_lambda_uses_same_container(self, tmp_path):
        lam = sieve_liouville(5000)
        path = tmp_path / "lambda.bin"
        save_cache(lam, path)
        loaded = load_cache(path)
        assert np.array_equal(loaded.values(1, 5001), lam.values(1, 5001))

    def test_a_loaded_table_is_labelled_by_its_file_name(self, tmp_path):
        for table, name in ((sieve_liouville(100), "lambda"), (sieve_mobius(100), "mu")):
            save_cache(table, tmp_path / f"{name}.bin")
            assert load_cache(tmp_path / f"{name}.bin").label == name


def sieved(sieve, n_max, size):
    """sieve(n_max) with segments of `size` n, a multiple of 8."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(mulab.sieves, "_SEGMENT", size)
        return sieve(n_max)


class TestSegments:
    # prime squares and cubes (4, 8, 9, 25, 27, 49, ...) straddle the edges
    # of the small segments
    N = 5003

    @pytest.mark.parametrize("sieve", [sieve_mobius, sieve_liouville, sieve_phi])
    def test_tables_do_not_depend_on_segment_size(self, sieve):
        def raw(table):
            arr = table.packed if isinstance(table, MobiusTable) else table.values
            return arr.tobytes()

        ref = raw(sieve(self.N))
        for size in (8, 16, 64):
            assert raw(sieved(sieve, self.N, size)) == ref

    def test_the_segment_is_a_multiple_of_8(self):
        # mu's and lambda's segments start at an even byte, phi's at an odd n
        assert mulab.sieves._SEGMENT > 0 and mulab.sieves._SEGMENT % 8 == 0

    def test_small_segments_match_the_oracles(self):
        mu = sieved(sieve_mobius, self.N, 8)
        lam = sieved(sieve_liouville, self.N, 8)
        phi = sieved(sieve_phi, self.N, 8)
        for n in range(1, self.N + 1):
            assert mu.value(n) == mu_oracle(n)
            assert lam.value(n) == lambda_oracle(n)
            assert phi.value(n) == phi_oracle(n)

    @pytest.mark.parametrize("name,squarefree,oracle", [
        ("mu", True, mu_oracle), ("lambda", False, lambda_oracle),
        ("phi", None, phi_oracle),
    ], ids=["mu", "lambda", "phi"])
    def test_int64_remainder_above_2_31(self, name, squarefree, oracle):
        # n_max >= 2^31 keeps the segments in int64; only the first segment
        # is built, over its odd n, and it must hold the small odd n's values
        n_max = 2 ** 31 + 5
        odd = np.arange(1, 2000, 2)
        lo, s, vals = next(_segments(n_max, 2000, name))
        if squarefree is None:
            prod = np.abs(s)
            assert lo == 1 and vals.dtype == prod.dtype == np.int64
            assert vals.size == prod.size == 1000
            q = odd // prod  # 1, or the one prime above sqrt(n_max)
            assert (q * prod == odd).all()
            got = vals * np.where(q > 1, q - 1, 1)
        else:
            assert lo == 1 and s.dtype == np.int64 and s.size == 1000
            assert vals is None
            got = np.array([0, 1, -1])[_codes(s, lo)]
        assert got.tolist() == [oracle(n) for n in odd.tolist()]
        # the even n, from n / 2 by the 2-adic rule
        value = dict(zip(odd.tolist(), got.tolist()))
        rule = TWO_ADIC[name]
        for n in range(2, 2001, 2):
            value[n] = rule(value[n // 2], n // 2)
            assert value[n] == oracle(n), n


class TestWeights:
    def test_weights_share_the_table_array(self):
        from mulab.phase_sums import weights_from_table

        table = sieve_mobius(1000)
        w = weights_from_table(table)
        assert w.values is table.weight_array()
        with pytest.raises(ValueError):
            w.values[1] = 0
        assert table.value(1) == 1 and w.values[0] == 0

    def test_decoding_across_segments(self, monkeypatch):
        table = sieve_mobius(1000)
        vals = table.values(1, 1001)
        # 2 bytes (8 entries) a chunk
        monkeypatch.setattr(mulab.sieves, "_SCAN_BYTES", 2)
        w = table.weight_array()
        assert w[0] == 0 and np.array_equal(w[1:], vals)
        csum = np.cumsum(vals, dtype=np.int64)
        pts = [1, 7, 8, 500, 1000]
        assert mertens_trace(table, pts) == [(n, int(csum[n - 1])) for n in pts]


class TestBudget:
    def test_budget_error_mentions_remedy(self):
        with pytest.raises(ResourceBudgetError, match="budget"):
            sieve_mobius(3 * 10 ** 9)

    def test_budget_counts_the_working_segment(self, monkeypatch):
        # the 250-byte packed table fits in 1000 bytes, its segment does not
        monkeypatch.setattr(mulab.sieves, "DEFAULT_BUDGET_BYTES", 10 ** 5)
        sieve_mobius(1000)
        monkeypatch.setattr(mulab.sieves, "DEFAULT_BUDGET_BYTES", 1000)
        with pytest.raises(ResourceBudgetError, match="for one segment"):
            sieve_mobius(1000)

    def test_phi_over_default_budget_fails_fast(self):
        import time

        start = time.perf_counter()
        with pytest.raises(ResourceBudgetError, match="phi sieve"):
            sieve_phi(10 ** 9)
        assert time.perf_counter() - start < 1.0


class TestPackedInvariants:
    def test_reserved_code_rejected(self):
        table = sieve_mobius(64)
        bad = table.packed.copy()
        bad[0] |= 0b11  # force code 11 at n = 1
        broken = MobiusTable(64, bad)
        with pytest.raises(Exception, match="reserved code"):
            broken.values(1, 65)


# ---------------------------------------------------------------------------
# the tiled kernel and the byte-table decode against the trial-division
# oracles

PERIOD = 176_400  # 2^4 3^2 5^2 7^2, the every-n kernels' pre-sieved period
TILE = 2 * 11_025  # the odd-only tile's period in n: the odd residues of 3^2 5^2 7^2


def raw_table(table):
    arr = table.packed if isinstance(table, MobiusTable) else table.values
    return arr.tobytes()


def assert_matches_oracles(n_max, ns, size=1 << 20):
    mu = sieved(sieve_mobius, n_max, size)
    lam = sieved(sieve_liouville, n_max, size)
    phi = sieved(sieve_phi, n_max, size)
    mu_w, lam_w = mu.weight_array(), lam.weight_array()
    for n in ns:
        assert mu_w[n] == mu_oracle(n), (n_max, n)
        assert lam_w[n] == lambda_oracle(n), (n_max, n)
        assert phi.values[n] == phi_oracle(n), (n_max, n)
    return mu, lam, phi


class TestTiledKernel:
    @pytest.mark.parametrize("n_max", range(1, 61))
    def test_every_small_n_max(self, n_max):
        # the tiled powers 9, 25 and 49 exceed n_max for the smallest, and
        # bytes 0 and 1 read byte 0 itself (n = 2 reads 1, 4 reads 2, 8 reads 4)
        mu, lam, phi = assert_matches_oracles(n_max, range(1, n_max + 1))
        assert raw_table(mu) == raw_table(sieve_oracle.pack_mobius(n_max))
        assert raw_table(lam) == raw_table(sieve_oracle.pack_liouville(n_max))
        for size in (8, 16, 24):
            assert raw_table(sieved(sieve_mobius, n_max, size)) == raw_table(mu)
            assert raw_table(sieved(sieve_liouville, n_max, size)) == raw_table(lam)
            assert raw_table(sieved(sieve_phi, n_max, size)) == raw_table(phi)

    @pytest.mark.parametrize("n_max", [PERIOD - 1, PERIOD, PERIOD + 1])
    def test_around_one_period(self, n_max):
        rng = random.Random(n_max)
        ns = (list(range(1, 400)) + list(range(PERIOD - 400, n_max + 1))
              + [rng.randrange(1, n_max + 1) for _ in range(2000)])
        mu, lam, phi = assert_matches_oracles(n_max, ns)
        for size in (PERIOD // 4 + 4, 65_536, 100_000):  # multiples of 8
            assert raw_table(sieved(sieve_mobius, n_max, size)) == raw_table(mu)
            assert raw_table(sieved(sieve_liouville, n_max, size)) == raw_table(lam)
            assert raw_table(sieved(sieve_phi, n_max, size)) == raw_table(phi)

    @given(st.integers(1, 3 * PERIOD).flatmap(lambda n_max: st.tuples(
        st.just(n_max),
        st.integers(max(1, n_max // 512), PERIOD // 4).map(lambda k: 8 * k))))
    @settings(max_examples=25)
    @example((PERIOD + 1, PERIOD))
    @example((2 * PERIOD + 5, PERIOD // 3 + 8))
    @example((3 * PERIOD, 2 * PERIOD))
    @example((3 * PERIOD - 1, 3 * PERIOD // 64 + 4))
    def test_tables_do_not_depend_on_the_segment_size(self, case):
        n_max, size = case
        # n on both sides of the segment edges and of the period's multiples
        edges = [k * size + 1 for k in range(1, n_max // size + 1)]
        edges += [k * PERIOD for k in range(1, n_max // PERIOD + 1)]
        ns = {n for e in edges + [1, n_max] for n in range(e - 2, e + 3)
              if 1 <= n <= n_max}
        mu, lam, phi = assert_matches_oracles(n_max, sorted(ns), size)
        assert raw_table(mu) == raw_table(sieve_mobius(n_max))
        assert raw_table(lam) == raw_table(sieve_liouville(n_max))
        assert raw_table(phi) == raw_table(sieve_phi(n_max))

    @pytest.mark.parametrize("n_max", [TILE - 1, TILE, TILE + 1, 2 * TILE + 1])
    def test_around_the_odd_tiles_period(self, n_max):
        ns = list(range(1, 200)) + list(range(TILE - 200, n_max + 1))
        mu, lam, phi = assert_matches_oracles(n_max, ns)
        for size in (TILE // 4, TILE - 2, TILE + 6, 4096):  # multiples of 8
            assert raw_table(sieved(sieve_mobius, n_max, size)) == raw_table(mu)
            assert raw_table(sieved(sieve_liouville, n_max, size)) == raw_table(lam)
            assert raw_table(sieved(sieve_phi, n_max, size)) == raw_table(phi)

    def test_phi_tile_holds_every_period_residue(self):
        # the multiples of the whole period: every tiled power divides them
        n_max = 3 * PERIOD + 7
        phi = sieve_phi(n_max)
        for n in (PERIOD, 2 * PERIOD, 3 * PERIOD, 2 * PERIOD + 1, 3 * PERIOD + 7):
            assert phi.value(n) == phi_oracle(n)


def two_powers_and_neighbours(top):
    return sorted({n for e in range(top + 1) for n in range(2 ** e - 2, 2 ** e + 3)
                   if n >= 1})


class TestOddOnly:
    # the odd-only kernels against the every-n kernels they replaced: the
    # packed bytes and phi's values, not only the decoded values, must be
    # the same.  Strata: the default segment up to three old periods; n_max
    # near a power of 2 (the first segment's doubling edges, in n for phi and
    # in bytes for mu and lambda), with segment sizes that end there too; the
    # smallest segments.
    @given(st.one_of(
        st.tuples(st.integers(1, 3 * PERIOD), st.just(1 << 20)),
        st.tuples(st.sampled_from(two_powers_and_neighbours(20)),
                  st.sampled_from([1 << 20, 1 << 12, 1 << 16])),
        st.integers(1, 8).map(lambda k: 8 * k).flatmap(lambda size: st.tuples(
            st.integers(1, 256 * size), st.just(size)))))
    @settings(max_examples=40, deadline=None)
    @example((PERIOD - 1, 1 << 20))
    @example((PERIOD, 1 << 20))
    @example((PERIOD + 1, 1 << 20))
    @example((PERIOD + 1, 64))
    @example((4 * 10 ** 5, 1 << 20))
    @example((2 ** 20 + 1, 1 << 16))
    @example((3 * PERIOD, 1 << 12))
    def test_tables_equal_the_every_n_kernels(self, case):
        n_max, size = case
        assert raw_table(sieved(sieve_mobius, n_max, size)) == \
            raw_table(sieve_oracle.pack_mobius(n_max))
        assert raw_table(sieved(sieve_liouville, n_max, size)) == \
            raw_table(sieve_oracle.pack_liouville(n_max))
        assert raw_table(sieved(sieve_phi, n_max, size)) == \
            sieve_oracle.phi_values(n_max).tobytes()

    @pytest.mark.parametrize("r", range(8))
    @given(m=st.integers(0, 3 * PERIOD // 8), parts=st.integers(1, 64))
    @settings(max_examples=6, deadline=None)
    def test_every_residue_mod_8_leaves_no_code_past_n_max(self, r, m, parts):
        # the even codes come a byte pair at a time: none may land past n_max
        n_max = max(1, 8 * m + r)
        size = 8 * max(1, n_max // (8 * parts))  # at most 128 segments
        for sieve, oracle in ((sieve_mobius, sieve_oracle.pack_mobius),
                              (sieve_liouville, sieve_oracle.pack_liouville)):
            table = sieved(sieve, n_max, size)
            assert raw_table(table) == raw_table(oracle(n_max))
            assert table.packed[-1] >> 2 * (n_max - 4 * (table.packed.size - 1)) == 0
        assert raw_table(sieved(sieve_phi, n_max, size)) == \
            sieve_oracle.phi_values(n_max).tobytes()


class TestSignedProduct:
    @pytest.mark.parametrize("name,squarefree,oracle", [
        ("mu", True, mu_oracle), ("lambda", False, lambda_oracle),
        ("phi", False, phi_oracle),
    ], ids=["mu", "lambda", "phi"])
    def test_the_product_is_the_sieved_part_of_n(self, name, squarefree, oracle):
        # over the odd n, |s| is n over its one prime above sqrt(n_max), if
        # any; mu's s is 0 exactly on the non-squarefree n, and phi's vals
        # is phi(|s|)
        n_max = 5000
        (lo, s, vals), = _segments(n_max, 1 << 20, name)
        assert lo == 1 and s.size == n_max // 2
        assert (vals is None) == (name != "phi")
        for i, (n, v) in enumerate(zip(range(lo, n_max + 1, 2), s.tolist())):
            f = factorize(n)
            if squarefree and max(f.values(), default=1) > 1:
                assert v == 0, n
                continue
            big = [p for p in f if p * p > n_max]
            assert abs(v) == n // (big[0] if big else 1), n
            sign = (-1 if v < 0 else 1) * (-1) ** len(big)
            if name == "phi":  # phi's s is lambda's signed product
                assert vals[i] == euler_phi(abs(v)) and sign == lambda_oracle(n), n
            else:
                assert sign == oracle(n), n
        # the even n: the table's values from n / 2 by the 2-adic rule
        sieve = {"mu": sieve_mobius, "lambda": sieve_liouville, "phi": sieve_phi}[name]
        table = sieve(n_max)
        w = table.values if name == "phi" else table.weight_array()
        for n in range(2, n_max + 1, 2):
            assert w[n] == TWO_ADIC[name](int(w[n // 2]), n // 2) == oracle(n), n


class TestByteDecode:
    @pytest.mark.parametrize("n_max", [1000, 1001, 1002, 1003])
    def test_values_weights_and_sums_at_every_residue(self, monkeypatch, n_max):
        table = sieve_liouville(n_max)
        oracle = [lambda_oracle(n) for n in range(1, n_max + 1)]
        csum = np.cumsum(oracle)
        # 12 entries a chunk: chunk edges every 3 bytes
        monkeypatch.setattr(mulab.sieves, "_SCAN_BYTES", 3)
        w = table.weight_array()
        assert w.size == n_max + 1 and w[0] == 0 and w.tolist()[1:] == oracle
        for lo in range(1, 14):
            for hi in (lo, lo + 1, lo + 7, n_max - 3, n_max + 1):
                if lo <= hi <= n_max + 1:
                    assert table.values(lo, hi).tolist() == oracle[lo - 1 : hi - 1]
        pts = list(range(1, 30)) + [500, 501] + list(range(n_max - 14, n_max + 1))
        assert mertens_trace(table, pts) == [(n, int(csum[n - 1])) for n in pts]

    def test_reserved_code_is_refused_by_every_reader(self):
        from mulab.errors import InvariantError

        table = sieve_mobius(1001)
        bad = table.packed.copy()
        bad[100] |= 0b11 << 4  # n = 403
        for read in (lambda t: t.weight_array(), lambda t: mertens(t, 1001),
                     lambda t: t.values(400, 410)):
            with pytest.raises(InvariantError, match="reserved code 11"):
                read(MobiusTable(1001, bad))
        assert MobiusTable(1001, bad).values(1, 400).tolist() == \
            table.values(1, 400).tolist()


class TestSieveBudget:
    @pytest.mark.parametrize("sieve,table_bytes", [
        (sieve_mobius, lambda n: (n + 3) // 4),
        (sieve_liouville, lambda n: (n + 3) // 4),
        (sieve_phi, lambda n: 8 * (n + 1)),
    ], ids=["mu", "lambda", "phi"])
    def test_peak_within_the_budget_figure(self, sieve, table_bytes):
        import tracemalloc
        from mulab.sieves import _segment_bytes

        n_max = 2 * 10 ** 6
        tracemalloc.start()
        try:
            sieve(n_max)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= table_bytes(n_max) + _segment_bytes(n_max)

    @pytest.mark.parametrize("call", [sieve_mobius, sieve_liouville, sieve_phi],
                             ids=["mu", "lambda", "phi"])
    def test_n_max_past_2_53_is_refused_fast(self, call):
        import time

        start = time.perf_counter()
        for n in (2 ** 53, 2 ** 60):
            with pytest.raises(ValueError, match="below 2\\^53"):
                call(n)
        assert time.perf_counter() - start < 1.0


def test_the_sieves_take_no_budget_parameter():
    # the 512 MiB default is the only budget and _SEGMENT the only segment
    # length; tests patch the module constants
    for sieve in (sieve_mobius, sieve_liouville, sieve_phi):
        assert list(inspect.signature(sieve).parameters) == ["n_max"]
