import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oneshot_qit import circuits
from oneshot_qit.circuits import (CircuitMetrics, Gate, ReversibleCircuit,
                                  encode_decoupler_input, metrics,
                                  simulate_table, synth_decoupler, synth_swap)
from oneshot_qit.convexsplit import PrimeRegister, u_ell, u_ell_index
from oracles import PlainBuilder, generator_metrics, simulate_basis


def mod_add_circuit(modulus):
    """|x>|y> -> |x>|(y + x) mod modulus> by one `_ModularUnit.add_reg`, the
    decoupler's adder, with x on wires [0, n) and y on [n, 2n); every other
    wire is a helper that returns to 0."""
    b = circuits._Builder()
    n = max(1, (modulus - 1).bit_length())
    x = b.alloc(n, "data")
    y = b.alloc(n, "data")
    top = b.alloc(1, "scratch")[0]
    circuits._ModularUnit(b, modulus).add_reg(x, y + [top])
    return circuits._finish(b)


def run_mod_add(circ, modulus, x, y):
    n = max(1, (modulus - 1).bit_length())
    bits = [0] * circ.wire_count
    for k in range(n):
        bits[k] = (x >> k) & 1
        bits[n + k] = (y >> k) & 1
    out = simulate_basis(circ, bits)
    x_out = sum(out[k] << k for k in range(n))
    y_out = sum(out[n + k] << k for k in range(n))
    scratch_clear = not any(out[k] for k in range(2 * n, circ.wire_count))
    return x_out, y_out, scratch_clear


class TestGateAndCircuit:
    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("CNOT", 1, (1,))
        with pytest.raises(ValueError):
            Gate("X", 0, (1,))
        with pytest.raises(ValueError):
            Gate("NAND", 0)

    def test_empty_circuit_identity(self):
        circ = ReversibleCircuit(3, ["data"] * 3)
        assert simulate_basis(circ, [1, 0, 1]) == [1, 0, 1]
        assert metrics(circ) == CircuitMetrics(0, 0, 0)

    def test_single_x(self):
        circ = ReversibleCircuit(2, ["data"] * 2, [Gate("X", 0)])
        assert simulate_basis(circ, [0, 1]) == [1, 1]

    def test_toffoli_semantics(self):
        circ = ReversibleCircuit(3, ["data"] * 3, [Gate("TOF", 2, (0, 1))])
        assert simulate_basis(circ, [1, 1, 0]) == [1, 1, 1]
        assert simulate_basis(circ, [1, 0, 0]) == [1, 0, 0]

    def test_depth_disjoint_wires(self):
        circ = ReversibleCircuit(4, ["data"] * 4, [Gate("X", 0), Gate("X", 2)])
        assert metrics(circ).depth == 1

    def test_string_io(self):
        circ = ReversibleCircuit(2, ["data", "data"], [Gate("X", 1)])
        assert simulate_basis(circ, "00") == "01"


class TestSwapFragment:
    def test_three_cnot_depth_three(self):
        m = metrics(synth_swap())
        assert m.size == 3
        assert m.depth == 3

    def test_swaps(self):
        circ = synth_swap()
        assert simulate_basis(circ, [1, 0]) == [0, 1]
        assert simulate_basis(circ, [0, 1]) == [1, 0]
        assert simulate_basis(circ, [1, 1]) == [1, 1]


class TestModAdd:
    def test_spec_example(self):
        circ = mod_add_circuit(5)
        x_out, y_out, clear = run_mod_add(circ, 5, 3, 4)
        assert (x_out, y_out) == (3, 2)
        assert clear

    def test_zero_addend_identity(self):
        circ = mod_add_circuit(7)
        for y in range(7):
            x_out, y_out, clear = run_mod_add(circ, 7, 0, y)
            assert (x_out, y_out) == (0, y) and clear

    @pytest.mark.parametrize("modulus", [2, 3, 5, 8, 13, 21, 64])
    def test_exhaustive(self, modulus):
        circ = mod_add_circuit(modulus)
        for x in range(modulus):
            for y in range(modulus):
                x_out, y_out, clear = run_mod_add(circ, modulus, x, y)
                assert x_out == x
                assert y_out == (x + y) % modulus
                assert clear


def exhaustive_decoupler_check(c_dim, g):
    circ = synth_decoupler(c_dim, g, g)
    n = max(1, (g - 1).bit_length())
    l_bits = max(1, (g - 1).bit_length())
    reg = PrimeRegister(c_dim, g)
    tables = {ell: u_ell(ell, reg) for ell in range(g)}
    inputs, keys = [], []
    for ell in range(g):
        for i in range(g):
            for j in range(g):
                inputs.append(encode_decoupler_input(n, l_bits, i, j, ell,
                                                     circ.wire_count))
                keys.append((i, j, ell))
    outs = simulate_table(circ, np.array(inputs))
    for row, (i, j, ell) in zip(outs, keys):
        i_out = sum(int(row[k]) << k for k in range(n))
        j_out = sum(int(row[n + k]) << k for k in range(n))
        l_out = sum(int(row[2 * n + k]) << k for k in range(l_bits))
        assert (i_out, j_out) == tables[ell][(i, j)]
        assert l_out == ell
        assert not row[2 * n + l_bits:].any()   # ancillas restored
    return circ


def _bits(values, n):
    """Little-endian n-bit rows of ``values``."""
    return (np.asarray(values)[:, None] >> np.arange(n)) & 1


def _value(bits):
    return bits.astype(np.int64) @ (1 << np.arange(bits.shape[1]))


# every prime below 40 with some |C| such that |C|^2 <= |G| <= 2|C|^2 (all but 3)
DECOUPLER_PRIMES = [2, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]


class TestRandomPrimes:
    """The adder and the decoupler on every input of a random small prime."""

    @settings(max_examples=15, deadline=None)
    @given(p=st.sampled_from(DECOUPLER_PRIMES), data=st.data())
    def test_circuits_match_modular_arithmetic(self, p, data):
        n = max(1, (p - 1).bit_length())
        x, y = np.divmod(np.arange(p * p), p)
        circ = mod_add_circuit(p)
        inputs = np.zeros((p * p, circ.wire_count), dtype=bool)
        inputs[:, :n], inputs[:, n:2 * n] = _bits(x, n), _bits(y, n)
        out = simulate_table(circ, inputs)
        assert np.array_equal(_value(out[:, :n]), x)
        assert np.array_equal(_value(out[:, n:2 * n]), (x + y) % p)
        assert not out[:, 2 * n:].any()

        c_dim = data.draw(st.sampled_from(
            [c for c in range(1, 7) if c * c <= p <= 2 * c * c]), label="c_dim")
        circ = synth_decoupler(c_dim, p, p)
        ell, i, j = np.indices((p, p, p)).reshape(3, -1)
        inputs = np.zeros((p ** 3, circ.wire_count), dtype=bool)
        inputs[:, :n], inputs[:, n:2 * n] = _bits(i, n), _bits(j, n)
        inputs[:, 2 * n:3 * n] = _bits(ell, n)
        out = simulate_table(circ, inputs)
        images = np.stack([u_ell_index(m, p) for m in range(p)])
        assert np.array_equal(_value(out[:, :n]) * p + _value(out[:, n:2 * n]),
                              images[ell, i * p + j])
        assert np.array_equal(_value(out[:, 2 * n:3 * n]), ell)
        assert not out[:, 3 * n:].any()


class TestDecoupler:
    def test_identity_at_l_zero(self):
        circ = synth_decoupler(2, 5, 5)
        n = 3
        for i in range(5):
            for j in range(5):
                bits = encode_decoupler_input(n, 3, i, j, 0, circ.wire_count)
                out = simulate_basis(circ, bits)
                assert out[:circ.wire_count] == bits

    def test_l_one_formula(self):
        # l=1 sends (i, j) to (j, 2j - i)
        circ = synth_decoupler(2, 5, 5)
        n = 3
        bits = encode_decoupler_input(n, 3, 1, 3, 1, circ.wire_count)
        out = simulate_basis(circ, bits)
        i_out = sum(out[k] << k for k in range(n))
        j_out = sum(out[n + k] << k for k in range(n))
        assert (i_out, j_out) == (3, 0)

    @pytest.mark.parametrize("c_dim,g", [(2, 5), (2, 7), (3, 11)])
    def test_exhaustive_equivalence(self, c_dim, g):
        exhaustive_decoupler_check(c_dim, g)

    def test_reversibility(self):
        circ = synth_decoupler(2, 5, 5)
        # X, CNOT and Toffoli are involutions: the reversed list inverts
        inv = ReversibleCircuit(circ.wire_count, list(circ.roles),
                                list(reversed(circ.gates)))
        rng = np.random.default_rng(0)
        for _ in range(20):
            i, j, ell = rng.integers(0, 5, size=3)
            bits = encode_decoupler_input(3, 3, int(i), int(j), int(ell),
                                          circ.wire_count)
            assert simulate_basis(inv, simulate_basis(circ, bits)) == bits

    def test_non_prime_rejected(self):
        with pytest.raises(ValueError):
            synth_decoupler(2, 6, 6)

    @pytest.mark.parametrize("prime", [3, 11])
    def test_prime_outside_range_rejected(self, prime):
        with pytest.raises(ValueError, match=r"outside \[4, 8\]"):
            synth_decoupler(2, prime, prime)

    def test_size_scaling_band(self):
        # sanity band: growth no faster than c * log^2 |G| * loglog |G|
        sizes = {}
        for g in (5, 7, 11, 13, 17, 31):
            c_dim = 2 if g <= 8 else (3 if g <= 18 else 5)
            sizes[g] = metrics(synth_decoupler(c_dim, g, g)).size

        def f(g):
            return (np.log2(g) ** 2) * np.log2(np.log2(g))

        ratios = [sizes[g] / f(g) for g in sizes]
        c_fit = float(np.median(ratios))
        for g, size in sizes.items():
            assert size <= 2.5 * c_fit * f(g)


def loop_simulate_table(circuit, inputs):
    """simulate_table as one bool per input pushed through columns (oracle)."""
    state = np.array(inputs, dtype=bool)
    for g in circuit.gates:
        if g.kind == "X":
            state[:, g.target] ^= True
        elif g.kind == "CNOT":
            state[:, g.target] ^= state[:, g.controls[0]]
        else:
            state[:, g.target] ^= state[:, g.controls[0]] & state[:, g.controls[1]]
    return state


def mixed_circuit():
    gates = [Gate("X", 0), Gate("CNOT", 1, (0,)), Gate("TOF", 2, (0, 1)),
             Gate("X", 4), Gate("TOF", 3, (4, 2)), Gate("CNOT", 0, (3,)),
             Gate("TOF", 1, (3, 0)), Gate("X", 2)]
    return ReversibleCircuit(5, ["data"] * 5, gates)


class TestBitSlicedTable:
    """The packed simulator against the column loop and simulate_basis."""

    @pytest.mark.parametrize("rows", [0, 1, 63, 64, 65, 130])
    def test_matches_column_loop_and_basis(self, rows):
        circ = mixed_circuit()
        inputs = np.random.default_rng(rows).integers(0, 2, (rows, 5))
        got = simulate_table(circ, inputs)
        assert got.dtype == bool and got.shape == (rows, 5)
        assert np.array_equal(got, loop_simulate_table(circ, inputs))
        for bits, out in zip(inputs.tolist(), got):
            assert simulate_basis(circ, bits) == out.astype(int).tolist()

    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), wires=st.integers(3, 9), rows=st.integers(0, 200),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_random_gate_lists(self, data, wires, rows, seed):
        controls = {"X": 0, "CNOT": 1, "TOF": 2}
        drawn = data.draw(st.lists(
            st.tuples(st.sampled_from(sorted(controls)),
                      st.permutations(range(wires))), max_size=40))
        gates = [Gate(kind, perm[0], tuple(perm[1:1 + controls[kind]]))
                 for kind, perm in drawn]
        circ = ReversibleCircuit(wires, ["data"] * wires, gates)
        inputs = np.random.default_rng(seed).integers(0, 2, (rows, wires))
        got = simulate_table(circ, inputs)
        assert np.array_equal(got, loop_simulate_table(circ, inputs))
        for bits, out in zip(inputs[:5].tolist(), got):
            assert simulate_basis(circ, bits) == out.astype(int).tolist()

    def test_bool_and_narrow_integer_tables(self):
        circ = mixed_circuit()
        inputs = np.random.default_rng(0).integers(0, 2, (70, 5))
        want = loop_simulate_table(circ, inputs)
        for dtype in (bool, np.uint8, np.int8, float):
            assert np.array_equal(simulate_table(circ, inputs.astype(dtype)), want)

    @pytest.mark.parametrize("inputs", [[0, 0], [[[0, 0]]], 1])
    def test_table_must_be_2d(self, inputs):
        circ = ReversibleCircuit(2, ["data"] * 2, [Gate("X", 0)])
        with pytest.raises(ValueError, match="2-D"):
            simulate_table(circ, inputs)

    @pytest.mark.parametrize("entry", [2, -1, 0.5])
    def test_table_entries_must_be_bits(self, entry):
        circ = ReversibleCircuit(2, ["data"] * 2, [Gate("X", 0)])
        with pytest.raises(ValueError, match="0 or 1"):
            simulate_table(circ, [[0, 1], [entry, 0]])

    @pytest.mark.parametrize("bits", [[2, 0], [0, -1], "20"])
    def test_basis_entries_must_be_bits(self, bits):
        circ = ReversibleCircuit(2, ["data"] * 2, [Gate("X", 0)])
        with pytest.raises(ValueError, match="0 or 1"):
            simulate_basis(circ, bits)

    def test_width_mismatch(self):
        circ = ReversibleCircuit(2, ["data"] * 2, [Gate("X", 0)])
        with pytest.raises(ValueError, match="width"):
            simulate_table(circ, [[0, 1, 0]])


class TestInternedGates:
    """The interning builder and the plain-int depth against their former
    bodies: the same gate lists, sizes and depths."""

    SYNTHS = [(synth_swap, ()), (mod_add_circuit, (5,)),
              (mod_add_circuit, (16,))] \
        + [(synth_decoupler, (c_dim, g, g)) for c_dim, g in
           ((2, 5), (2, 7), (3, 11), (4, 17), (4, 19))] \
        + [(synth_decoupler, (3, 11, 4))]

    @pytest.mark.parametrize("synth,args", SYNTHS,
                             ids=lambda v: getattr(v, "__name__", str(v)))
    def test_gate_lists_equal_the_plain_builder(self, monkeypatch, synth,
                                                args):
        interned = synth(*args)
        monkeypatch.setattr(circuits, "_Builder", PlainBuilder)
        plain = synth(*args)
        assert interned.gates == plain.gates
        assert (interned.wire_count, interned.roles) \
            == (plain.wire_count, plain.roles)
        assert metrics(interned) == generator_metrics(plain)
        distinct = {(g.kind, g.target, g.controls) for g in plain.gates}
        assert len({id(g) for g in interned.gates}) == len(distinct)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), wires=st.integers(3, 9))
    def test_depth_matches_generator_form(self, data, wires):
        controls = {"X": 0, "CNOT": 1, "TOF": 2}
        drawn = data.draw(st.lists(
            st.tuples(st.sampled_from(sorted(controls)),
                      st.permutations(range(wires))), max_size=60))
        gates = [Gate(kind, perm[0], tuple(perm[1:1 + controls[kind]]))
                 for kind, perm in drawn]
        roles = data.draw(st.lists(st.sampled_from(["data", "ancilla",
                                                    "scratch"]),
                                   min_size=wires, max_size=wires))
        circ = ReversibleCircuit(wires, roles, gates)
        assert metrics(circ) == generator_metrics(circ)

    def test_empty_circuit_depth(self):
        circ = ReversibleCircuit(0, [])
        assert metrics(circ) == generator_metrics(circ) \
            == CircuitMetrics(0, 0, 0)
