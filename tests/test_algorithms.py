import enum
import itertools

import numpy as np
import pytest

from photonwalk import algorithms as alg
from photonwalk import walk_core as wc

H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)

# Truth tables in row order (x1,x2) = 00, 01, 10, 11.
TABLE_1 = {
    "i": (0, 0, 0, 0),
    "ii": (1, 1, 1, 1),
    "iii": (0, 0, 1, 1),
    "iv": (0, 1, 0, 1),
    "v": (1, 1, 0, 0),
    "vi": (1, 0, 1, 0),
    "vii": (0, 1, 1, 0),
    "viii": (1, 0, 0, 1),
}


def gray_position_matrix(op_2q):
    """Reindex a 2-qubit operator from binary order into cycle-vertex order."""
    g = [int(lab, 2) for lab in alg.CYCLE_LABELS]
    return op_2q[np.ix_(g, g)]


def permutation_from_map(mapping, dim):
    m = np.zeros((dim, dim), dtype=complex)
    for src, dst in mapping.items():
        m[dst, src] = 1.0
    return m


class TestClassify:
    def test_constant(self):
        assert alg.classify_fn(alg.BooleanFn(2, (0, 0, 0, 0))) is alg.FnClass.CONSTANT

    def test_balanced(self):
        assert alg.classify_fn(alg.BooleanFn(2, (0, 1, 1, 0))) is alg.FnClass.BALANCED

    def test_neither(self):
        assert alg.classify_fn(alg.BooleanFn(2, (0, 0, 0, 1))) is alg.FnClass.NEITHER


class Bit(enum.IntEnum):
    ONE = 1


class TestBooleanFnEntries:
    @pytest.mark.parametrize(
        "table",
        [
            (0.5, 0, 1, 1),
            "0011",
            ("0", "0", "1", "1"),
            ([1], 0, 1, 1),
            (np.array([1]), 0, 1, 1),
            (float("nan"), 0, 1, 1),
            (1 + 0j, 0, 1, 1),  # equal to 1, but int() refuses it
            b"\x00\x02\x01\x00",  # bytes skip only the conversion, not the check
        ],
        ids=[
            "fraction", "string", "string-entries", "list-entry", "array-entry", "nan", "complex",
            "bytes",
        ],
    )
    def test_rejects_non_bit_entries(self, table):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            alg.BooleanFn(2, table)

    @pytest.mark.parametrize("n", [2.5, "2", True], ids=["fraction", "string", "bool"])
    def test_rejects_non_int_n(self, n):
        with pytest.raises(ValueError, match="n must be an int"):
            alg.BooleanFn(n, (0, 1))

    @pytest.mark.parametrize(
        "n,table,want",
        [
            (2, (0, 1), "4"),
            (3, (0, 1, 0, 1), "8"),
            (1, (0, 1, 0, 1), "2"),
            (10**7, (0,), "2**10000000"),
            (2, np.array([0, 1], np.int16), "4"),  # 2 entries, not 4 buffer bytes
            (2, b"\x00\x01\x01", "4"),
        ],
        ids=["short", "power-of-two", "long", "huge-n", "int16-array", "bytes"],
    )
    def test_rejects_a_table_of_the_wrong_length(self, n, table, want):
        with pytest.raises(ValueError) as info:
            alg.BooleanFn(n, table)
        assert str(info.value) == f"truth table must have {want} entries, got {len(table)}"

    def test_integral_entries_become_ints(self):
        f = alg.BooleanFn(2, (1.0, np.int64(0), True, 0))
        assert f.table == b"\x01\x00\x01\x00"
        assert [f.value(x) for x in range(4)] == [1, 0, 1, 0]
        assert all(type(f.value(x)) is int for x in range(4))

    @pytest.mark.parametrize("table", [(0, 1, 1, 0), [0, 1, 1, 0]], ids=["tuple", "list"])
    def test_a_tuple_or_a_list_is_stored_as_bytes(self, table):
        f = alg.BooleanFn(2, table)
        assert f.table == b"\x00\x01\x01\x00" and type(f.table) is bytes

    @pytest.mark.parametrize(
        "entry",
        [
            0, 1, 2, 256, -1, 2**70, True, np.int64(1), np.uint8(1), np.bool_(True),
            Bit.ONE, 1.0, "1", [1], float("nan"),
        ],
        ids=[
            "0", "1", "2", "256", "-1", "2**70", "True", "int64", "uint8", "np-bool",
            "int-enum", "float", "str", "list", "nan",
        ],
    )
    @pytest.mark.parametrize("alone", [False, True], ids=["mixed", "alone"])
    def test_every_entry_kind_is_checked_as_by_the_set_check(self, entry, alone):
        table = (entry,) * 4 if alone else (entry, 0, 1, 1)
        want = set_check(table)
        if want is None:
            with pytest.raises(ValueError) as info:
                alg.BooleanFn(2, table)
            assert str(info.value) == "truth table entries must be 0 or 1"
            return
        f = alg.BooleanFn(2, table)
        assert f.table == bytes(want) and list(f.table) == list(want)
        assert f == alg.BooleanFn(2, want) and hash(f) == hash(alg.BooleanFn(2, want))
        assert repr(f) == f"BooleanFn(n=2, table={bytes(want)!r})"

    @pytest.mark.parametrize(
        "table",
        [b"\x00\x01\x01\x00", bytearray(b"\x00\x01\x01\x00"), np.array([0, 1, 1, 0], np.int16)],
        ids=["bytes", "bytearray", "int16-array"],
    )
    def test_every_table_kind_is_read_entry_by_entry(self, table):
        want = set_check(table)
        assert want == (0, 1, 1, 0)  # an int16 array's entries, not its 8 buffer bytes
        f = alg.BooleanFn(2, table)
        assert f.table == bytes(want) and type(f.table) is bytes
        assert f == alg.BooleanFn(2, want) and hash(f) == hash(alg.BooleanFn(2, want))

    def test_a_0d_int_array_entry_is_read_as_its_scalar(self):
        f = alg.BooleanFn(2, (np.array(1), 0, 1, 1))
        assert f.table == b"\x01\x00\x01\x01"

    @pytest.mark.parametrize("table", [5, None], ids=["int", "none"])
    def test_rejects_a_table_that_is_not_iterable(self, table):
        with pytest.raises(ValueError, match="entries must be 0 or 1"):
            alg.BooleanFn(2, table)

    @pytest.mark.parametrize("table", [(0, 1, 1, 0), (2, 0, 1, 1), (0.5, 0, 1, 1), (0, 1)])
    def test_an_iterator_is_read_once(self, table):
        try:
            want = alg.BooleanFn(2, table)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                alg.BooleanFn(2, iter(table))
        else:
            assert alg.BooleanFn(2, iter(table)) == want


def set_check(table):
    """BooleanFn's entry check before int tables were checked by bytes(): the
    stored table, or None for a table it rejects."""
    try:
        bits = set(table) <= {0, 1}
    except TypeError:
        bits = False
    if not bits:
        return None
    return tuple(table) if set(map(type, table)) == {int} else tuple(map(int, table))


class TestCatalogue:
    def test_tables(self):
        cat = dict(alg.two_bit_catalogue())
        assert set(cat) == set(TABLE_1)
        for name, table in TABLE_1.items():
            assert cat[name].table == bytes(table), name

    def test_split(self):
        classes = [alg.classify_fn(f) for _, f in alg.two_bit_catalogue()]
        assert classes.count(alg.FnClass.CONSTANT) == 2
        assert classes.count(alg.FnClass.BALANCED) == 6

    def test_entry_iv_and_viii(self):
        cat = dict(alg.two_bit_catalogue())
        assert cat["iv"].table == b"\x00\x01\x00\x01"
        assert cat["viii"].table == b"\x01\x00\x00\x01"


class TestHiddenString:
    def test_dot_product(self):
        f = alg.hidden_string_fn("10")
        assert f.table == bytes(TABLE_1["iii"])
        f = alg.hidden_string_fn("11")
        assert f.table == bytes(TABLE_1["vii"])

    def test_longer_string(self):
        f = alg.hidden_string_fn("101")
        for x in range(8):
            bits = [(x >> 2) & 1, (x >> 1) & 1, x & 1]
            assert f.value(x) == (bits[0] + bits[2]) % 2

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            alg.hidden_string_fn("1x")

    @pytest.mark.parametrize("length", [33, 64])
    def test_rejects_more_than_32_bits_before_building_a_table(self, monkeypatch, length):
        monkeypatch.setattr(alg, "_FLIP", "no table")  # a doubling step would raise TypeError
        with pytest.raises(ValueError) as info:
            alg.hidden_string_fn("1" * length)
        assert str(info.value) == f"hidden string must have at most 32 bits, got {length}"

    @pytest.mark.parametrize("s", [1, 0, None, b"11", ["1", "0"], ("1",) * 40])
    @pytest.mark.parametrize(
        "run",
        [alg.hidden_string_fn, lambda s: alg.run_bv(s, alg.WITH_AUX)],
        ids=["hidden_string_fn", "run_bv"],
    )
    def test_rejects_a_non_str_before_building_a_table(self, monkeypatch, s, run):
        monkeypatch.setattr(alg, "_FLIP", "no table")  # a doubling step would raise TypeError
        with pytest.raises(ValueError) as info:
            run(s)
        assert str(info.value) == f"hidden string must be nonempty bits, got {s!r}"


class TestWithAuxOracle:
    def test_all_ones(self):
        oracle = alg.build_oracle_with_aux(alg.BooleanFn(2, (1, 1, 1, 1)))
        (step,) = oracle
        assert set(step.coin_map) == {0, 1, 2, 3}
        for coin in step.coin_map.values():
            np.testing.assert_array_equal(coin, alg.COIN_X)

    def test_all_zeros(self):
        oracle = alg.build_oracle_with_aux(alg.BooleanFn(2, (0, 0, 0, 0)))
        (step,) = oracle
        assert step.coin_map == {}

    def test_xor_flips_at_01_and_10(self):
        oracle = alg.build_oracle_with_aux(alg.BooleanFn(2, TABLE_1["vii"]))
        (step,) = oracle
        flipped = {alg.CYCLE_LABELS[v] for v in step.coin_map}
        assert flipped == {"01", "10"}

    def test_rejects_wrong_arity(self):
        with pytest.raises(ValueError):
            alg.build_oracle_with_aux(alg.BooleanFn(3, (0,) * 8))

    @pytest.mark.parametrize("name", sorted(TABLE_1))
    def test_equals_reference_oracle(self, name):
        f = alg.BooleanFn(2, TABLE_1[name])
        walk_op = alg.walk_to_circuit_operator(
            wc.program_operator(alg.build_oracle_with_aux(f), alg.scheme_topology(alg.WITH_AUX))
        )
        assert alg.equal_up_to_global_phase(walk_op, alg.reference_circuit_oracle(f))


def loop_index_map():
    """``with_aux_index_map`` as the original loop wrote it."""
    p = np.zeros(8, dtype=int)
    for c in (0, 1):
        for v in range(4):
            p[c * 4 + v] = int(alg.CYCLE_LABELS[v], 2) * 2 + c
    return p


def product_walk_to_circuit(m):
    """``walk_to_circuit_operator`` as the original permutation-matrix products."""
    perm = np.zeros((8, 8))
    perm[loop_index_map(), np.arange(8)] = 1.0
    return perm @ np.asarray(m, dtype=complex) @ perm.T


class TestWithAuxPermutation:
    def test_index_map_equals_the_loop(self):
        p, want = alg.with_aux_index_map(), loop_index_map()
        assert p.dtype == want.dtype and np.array_equal(p, want)

    @pytest.mark.parametrize("table", list(itertools.product((0, 1), repeat=4)))
    def test_gather_equals_the_products_on_every_oracle(self, table):
        m = wc.program_operator(alg.build_oracle_with_aux(alg.BooleanFn(2, table)), alg.CYCLE4)
        got = alg.walk_to_circuit_operator(m)
        assert got.dtype == complex and np.array_equal(got, product_walk_to_circuit(m))

    def test_gather_equals_the_products_on_random_matrices(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            m = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
            assert np.array_equal(alg.walk_to_circuit_operator(m), product_walk_to_circuit(m))


class TestNoAuxOracle:
    def expected_coins(self, name):
        f = alg.BooleanFn(2, TABLE_1[name])
        return {
            x2: np.diag([(-1.0) ** f.value(x2), (-1.0) ** f.value(2 + x2)])
            for x2 in (0, 1)
        }

    def test_all_zeros(self):
        (step,) = alg.build_oracle_no_aux(alg.BooleanFn(2, TABLE_1["i"]))
        for x2 in (0, 1):
            np.testing.assert_array_equal(step.coin_map[x2], np.eye(2))

    def test_x1(self):
        (step,) = alg.build_oracle_no_aux(alg.BooleanFn(2, TABLE_1["iii"]))
        for x2 in (0, 1):
            np.testing.assert_array_equal(step.coin_map[x2], np.diag([1.0, -1.0]))

    def test_x2(self):
        (step,) = alg.build_oracle_no_aux(alg.BooleanFn(2, TABLE_1["iv"]))
        np.testing.assert_array_equal(step.coin_map[0], np.eye(2))
        np.testing.assert_array_equal(step.coin_map[1], -np.eye(2))

    def test_xor(self):
        (step,) = alg.build_oracle_no_aux(alg.BooleanFn(2, TABLE_1["vii"]))
        np.testing.assert_array_equal(step.coin_map[0], np.diag([1.0, -1.0]))
        np.testing.assert_array_equal(step.coin_map[1], np.diag([-1.0, 1.0]))

    @pytest.mark.parametrize("table", [(0, 1), (0, 0, 0, 0, 1, 1, 1, 1)], ids=["n=1", "n=3"])
    def test_rejects_a_function_that_is_not_two_bit(self, table):
        f = alg.BooleanFn(len(table).bit_length() - 1, table)
        with pytest.raises(ValueError) as info:
            alg.build_oracle_no_aux(f)
        assert str(info.value) == "no-aux walk oracle is defined for 2-bit functions"

    @pytest.mark.parametrize("name", sorted(TABLE_1))
    def test_diagonal_phases(self, name):
        f = alg.BooleanFn(2, TABLE_1[name])
        op = wc.program_operator(alg.build_oracle_no_aux(f), alg.scheme_topology(alg.NO_AUX))
        off = op - np.diag(np.diag(op))
        assert np.max(np.abs(off)) <= 1e-12
        want = np.array([(-1.0) ** f.value(x) for x in range(4)])
        assert alg.equal_up_to_global_phase(np.diag(op), want)


class TestReferenceCircuitOracle:
    def test_constant_zero_is_identity(self):
        np.testing.assert_array_equal(
            alg.reference_circuit_oracle(alg.BooleanFn(2, (0, 0, 0, 0))), np.eye(8)
        )

    def test_x2_is_cnot(self):
        # enumerate |x1 x2, y> -> |x1 x2, y xor x2| by hand
        mapping = {}
        for x in range(4):
            for y in (0, 1):
                mapping[x * 2 + y] = x * 2 + (y ^ (x & 1))
        expected = permutation_from_map(mapping, 8)
        got = alg.reference_circuit_oracle(alg.BooleanFn(2, TABLE_1["iv"]))
        np.testing.assert_array_equal(got, expected)

    def test_not_x1(self):
        mapping = {}
        for x in range(4):
            for y in (0, 1):
                mapping[x * 2 + y] = x * 2 + (y ^ (1 - (x >> 1)))
        expected = permutation_from_map(mapping, 8)
        got = alg.reference_circuit_oracle(alg.BooleanFn(2, TABLE_1["v"]))
        np.testing.assert_array_equal(got, expected)


class TestOraclesEquivalent:
    def test_global_phase(self):
        assert alg.equal_up_to_global_phase(np.eye(4), np.exp(1j * np.pi) * np.eye(4))

    def test_different_operators(self):
        a = np.kron(alg.COIN_X, np.eye(2))
        b = np.kron(np.eye(2), alg.COIN_X)
        assert not alg.equal_up_to_global_phase(a, b)

    def test_dimension_mismatch(self):
        with pytest.raises(wc.DimensionMismatch):
            alg.equal_up_to_global_phase(np.eye(2), np.eye(4))


class TestHadamardLayer:
    def test_no_aux_operator(self):
        op = wc.program_operator(alg.hadamard_layer(alg.NO_AUX), alg.LINE2)
        assert alg.equal_up_to_global_phase(op, np.kron(H, H))

    def test_no_aux_position_only(self):
        op = wc.program_operator(
            alg.hadamard_layer(alg.NO_AUX, include_coin=False), alg.LINE2
        )
        assert alg.equal_up_to_global_phase(op, np.kron(np.eye(2), H))

    def test_with_aux_operator(self):
        op = wc.program_operator(alg.hadamard_layer(alg.WITH_AUX), alg.CYCLE4)
        target = np.kron(H, gray_position_matrix(np.kron(H, H)))
        assert alg.equal_up_to_global_phase(op, target)

    def test_with_aux_position_only(self):
        op = wc.program_operator(
            alg.hadamard_layer(alg.WITH_AUX, include_coin=False), alg.CYCLE4
        )
        target = np.kron(np.eye(2), gray_position_matrix(np.kron(H, H)))
        assert alg.equal_up_to_global_phase(op, target)

    def test_involution(self):
        for scheme in alg.SCHEMES:
            topo = alg.scheme_topology(scheme)
            op = wc.program_operator(alg.hadamard_layer(scheme), topo)
            assert alg.equal_up_to_global_phase(op @ op, np.eye(topo.dim))

    def test_no_aux_uniform_superposition(self):
        state = wc.run_program(
            wc.WalkState.basis(alg.LINE2, 0, 0), alg.hadamard_layer(alg.NO_AUX)
        )
        assert alg.equal_up_to_global_phase(state.amplitudes, np.full(4, 0.5))

    def test_with_aux_on_coin_one(self):
        state = wc.run_program(
            wc.WalkState.basis(alg.CYCLE4, 1, 0), alg.hadamard_layer(alg.WITH_AUX)
        )
        expected = np.kron([1, -1], np.full(4, 0.5)) / np.sqrt(2)
        assert alg.equal_up_to_global_phase(state.amplitudes, expected)

    def test_rejects_unknown_scheme(self):
        with pytest.raises(ValueError):
            alg.hadamard_layer("sideways")


class TestDeutschJozsa:
    def test_constant_one_with_aux(self):
        out = alg.run_dj(alg.BooleanFn(2, TABLE_1["ii"]), alg.WITH_AUX)
        assert out.p_all_zero == pytest.approx(1.0, abs=1e-10)
        assert out.classification is alg.FnClass.CONSTANT

    def test_x2_with_aux(self):
        out = alg.run_dj(alg.BooleanFn(2, TABLE_1["iv"]), alg.WITH_AUX)
        assert out.p_all_zero == pytest.approx(0.0, abs=1e-10)
        assert out.classification is alg.FnClass.BALANCED

    def test_no_aux_examples(self):
        assert alg.run_dj(
            alg.BooleanFn(2, TABLE_1["i"]), alg.NO_AUX
        ).p_all_zero == pytest.approx(1.0, abs=1e-10)
        for name in ("v", "vii"):
            out = alg.run_dj(alg.BooleanFn(2, TABLE_1[name]), alg.NO_AUX)
            assert out.p_all_zero == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("name", sorted(TABLE_1))
    @pytest.mark.parametrize("scheme", alg.SCHEMES)
    def test_final_state_matches_brute_force(self, name, scheme):
        f = alg.BooleanFn(2, TABLE_1[name])
        final = wc.run_program(
            wc.WalkState.basis(alg.scheme_topology(scheme), 0, 0),
            alg.build_dj_program(f, scheme),
        )
        ref = alg.brute_force_reference(scheme, f)
        walk_vec = final.amplitudes
        if scheme == alg.WITH_AUX:  # reindex into the circuit basis
            walk_vec = np.zeros(8, dtype=complex)
            walk_vec[alg.with_aux_index_map()] = final.amplitudes
        assert alg.equal_up_to_global_phase(walk_vec, ref, tol=1e-10)

    def test_promise_violation(self):
        with pytest.raises(alg.PromiseViolation):
            alg.run_dj(alg.BooleanFn(2, (0, 0, 0, 1)), alg.WITH_AUX)

    def test_pipeline_states_normalized(self):
        snaps = alg.dj_pipeline_states(alg.BooleanFn(2, TABLE_1["vii"]), alg.WITH_AUX)
        assert snaps[0][0] == "initial"
        assert [name for name, _ in snaps].count("oracle") == 1
        for _, state in snaps:
            assert abs(state.norm() - 1.0) <= 1e-10


class TestBernsteinVazirani:
    @pytest.mark.parametrize("s,dj_name", alg.BV_STRINGS)
    @pytest.mark.parametrize("scheme", alg.SCHEMES)
    def test_recovers_string(self, s, dj_name, scheme):
        out = alg.run_bv(s, scheme)
        assert out.recovered == s
        assert out.probability == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize("s,dj_name", alg.BV_STRINGS)
    def test_oracle_identical_to_dj(self, s, dj_name):
        f_s = alg.hidden_string_fn(s)
        f_dj = dict(alg.two_bit_catalogue())[dj_name]
        for build in (alg.build_oracle_with_aux, alg.build_oracle_no_aux):
            a, b = build(f_s), build(f_dj)
            assert set(a[0].coin_map) == set(b[0].coin_map)
            for pos in a[0].coin_map:
                np.testing.assert_array_equal(
                    a[0].coin_map[pos], b[0].coin_map[pos]
                )

    def test_longer_string_brute_force_path(self):
        for scheme in alg.SCHEMES:
            out = alg.run_bv("1011", scheme)
            assert out.recovered == "1011"
            assert out.probability == pytest.approx(1.0, abs=1e-10)


class TestBruteForceReference:
    def test_no_aux_constant_zero(self):
        vec = alg.brute_force_reference(alg.NO_AUX, alg.BooleanFn(2, (0, 0, 0, 0)))
        np.testing.assert_allclose(vec, [1, 0, 0, 0], atol=1e-12)

    def test_with_aux_x1_concentrates_on_10(self):
        vec = alg.brute_force_reference(alg.WITH_AUX, alg.BooleanFn(2, TABLE_1["iii"]))
        probs = (np.abs(vec) ** 2).reshape(4, 2).sum(axis=1)
        np.testing.assert_allclose(probs, [0, 0, 1, 0], atol=1e-12)

    def test_random_balanced_n3(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            table = [0, 0, 0, 0, 1, 1, 1, 1]
            rng.shuffle(table)
            f = alg.BooleanFn(3, tuple(table))
            assert alg.brute_force_p_all_zero(alg.NO_AUX, f) <= 1e-12


@pytest.mark.parametrize("x", [-1, 8])
def test_value_rejects_x_outside_the_table(x):
    f = alg.hidden_string_fn("101")
    with pytest.raises(ValueError, match=r"^x must be in \[0, 2\*\*3\), got " + str(x)):
        f.value(x)
