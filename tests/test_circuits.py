import numpy as np
import pytest

from oneshot_qit.circuits import (CircuitMetrics, Gate, ReversibleCircuit,
                                  circuit_from_text, circuit_to_text,
                                  encode_decoupler_input, metrics,
                                  simulate_basis, simulate_table,
                                  synth_decoupler, synth_mod_add,
                                  synth_mod_mul_const, synth_swap)
from oneshot_qit.convexsplit import PrimeRegister, u_ell


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
        circ = synth_mod_add(5)
        x_out, y_out, clear = run_mod_add(circ, 5, 3, 4)
        assert (x_out, y_out) == (3, 2)
        assert clear

    def test_zero_addend_identity(self):
        circ = synth_mod_add(7)
        for y in range(7):
            x_out, y_out, clear = run_mod_add(circ, 7, 0, y)
            assert (x_out, y_out) == (0, y) and clear

    @pytest.mark.parametrize("modulus", [2, 3, 5, 8, 13, 21, 64])
    def test_exhaustive(self, modulus):
        circ = synth_mod_add(modulus)
        for x in range(modulus):
            for y in range(modulus):
                x_out, y_out, clear = run_mod_add(circ, modulus, x, y)
                assert x_out == x
                assert y_out == (x + y) % modulus
                assert clear


class TestModMulConst:
    def run(self, circ, modulus, x):
        n = max(1, (modulus - 1).bit_length())
        bits = [0] * circ.wire_count
        for k in range(n):
            bits[k] = (x >> k) & 1
        out = simulate_basis(circ, bits)
        val = sum(out[k] << k for k in range(n))
        clear = not any(out[k] for k in range(n, circ.wire_count))
        return val, clear

    def test_identity_constant(self):
        circ = synth_mod_mul_const(5, 1)
        for x in range(5):
            val, clear = self.run(circ, 5, x)
            assert val == x and clear

    def test_spec_example(self):
        circ = synth_mod_mul_const(5, 2)
        val, clear = self.run(circ, 5, 3)
        assert val == 1 and clear

    @pytest.mark.parametrize("modulus,const", [(7, 3), (5, 4), (13, 6), (31, 11)])
    def test_exhaustive_bijection(self, modulus, const):
        circ = synth_mod_mul_const(modulus, const)
        seen = set()
        for x in range(modulus):
            val, clear = self.run(circ, modulus, x)
            assert val == (const * x) % modulus
            assert clear
            seen.add(val)
        assert len(seen) == modulus

    def test_non_invertible_rejected(self):
        with pytest.raises(ValueError):
            synth_mod_mul_const(8, 2)


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
        inv = circ.inverse()
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


class TestTextFormat:
    def test_roundtrip_bit_exact(self):
        circ = synth_mod_add(5)
        text = circuit_to_text(circ)
        back = circuit_from_text(text)
        assert back.wire_count == circ.wire_count
        assert back.roles == circ.roles
        assert back.gates == circ.gates
        assert circuit_to_text(back) == text

    def test_header_required(self):
        with pytest.raises(ValueError):
            circuit_from_text("X 0\n")
