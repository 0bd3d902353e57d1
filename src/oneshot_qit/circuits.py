"""Reversible-circuit synthesis of the classical decoupling unitary.

Gate set is {X, CNOT, TOFFOLI}.  Modular arithmetic is schoolbook: a Cuccaro
ripple-carry adder, compare-and-conditional-subtract reduction, and per-bit
controlled shift-adds keyed to the control register's binary expansion.  Every
helper register is returned to zero on all valid inputs, so fragments compose
and blocks invert by reversing the gate list.

Wire values are little-endian: wire 0 of a register is the least significant
bit.  Valid data inputs are values below the modulus; behavior outside that
range is unspecified.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .convexsplit import PrimeRegister

# control count of each gate kind
_CONTROLS = {"X": 0, "CNOT": 1, "TOF": 2}


@dataclass(frozen=True)
class Gate:
    kind: str
    target: int
    controls: tuple = ()

    def __post_init__(self):
        expected = _CONTROLS.get(self.kind)
        if expected is None:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if len(self.controls) != expected:
            raise ValueError(f"{self.kind} expects {expected} controls")
        wires = (self.target,) + self.controls
        if len(set(wires)) != len(wires):
            raise ValueError(f"gate wires must be distinct: {wires}")


@dataclass
class ReversibleCircuit:
    """Gate list over labeled wires with role bookkeeping."""

    wire_count: int
    roles: list
    gates: list = field(default_factory=list)

    def __post_init__(self):
        if len(self.roles) != self.wire_count:
            raise ValueError("one role per wire required")

    def ancilla_wires(self):
        return [w for w, r in enumerate(self.roles) if r in ("ancilla", "scratch")]


@dataclass(frozen=True)
class CircuitMetrics:
    size: int
    depth: int
    ancilla_count: int


def metrics(circuit):
    """Gate count, ASAP-layered depth, and ancilla count."""
    layer = [0] * circuit.wire_count
    depth = 0
    for g in circuit.gates:
        wires = (g.target,) + g.controls
        lev = max(layer[w] for w in wires) + 1
        for w in wires:
            layer[w] = lev
        depth = max(depth, lev)
    return CircuitMetrics(len(circuit.gates), depth, len(circuit.ancilla_wires()))


def simulate_table(circuit, inputs):
    """Simulate many basis inputs at once, bit-sliced.

    ``inputs`` is a 2-D array of 0/1 entries, one input per row and one wire
    per column; any other shape or entry raises ValueError.  The state is
    held wire-major, one Python int per wire: bit r of wire w's int is wire w
    of input r, so one int carries every input.  Each X, CNOT or TOF gate is
    then one NOT (XOR with the all-ones mask), XOR or XOR-with-AND of those
    ints on the target wire.  Returns a (rows, wires) bool array.
    """
    table = np.asarray(inputs)
    if table.ndim != 2:
        raise ValueError(f"inputs must be a 2-D table, got shape {table.shape}")
    if table.shape[1] != circuit.wire_count:
        raise ValueError("input width mismatch")
    if ((table != 0) & (table != 1)).any():
        raise ValueError("input table entries must be 0 or 1")
    rows = table.shape[0]
    packed = np.packbits(table.T.astype(bool), axis=1, bitorder="little")
    state = [int.from_bytes(row.tobytes(), "little") for row in packed]
    ones = (1 << rows) - 1
    for g in circuit.gates:
        if g.kind == "X":
            state[g.target] ^= ones
        elif g.kind == "CNOT":
            state[g.target] ^= state[g.controls[0]]
        else:
            state[g.target] ^= state[g.controls[0]] & state[g.controls[1]]
    width = packed.shape[1]
    out = np.frombuffer(b"".join(v.to_bytes(width, "little") for v in state),
                        dtype=np.uint8).reshape(len(state), width)
    return np.unpackbits(out, axis=1, count=rows, bitorder="little").T.astype(bool)


class _Builder:
    """Sequential wire allocator and gate emitter for arithmetic fragments."""

    def __init__(self):
        self.roles = []
        self.gates = []
        self._interned = {}

    def _emit(self, kind, target, controls=()):
        """Append the gate as the one Gate object the builder keeps for it:
        the arithmetic fragments repeat a few hundred distinct gates."""
        key = (kind, target, controls)
        gate = self._interned.get(key)
        if gate is None:
            gate = self._interned[key] = Gate(kind, target, controls)
        self.gates.append(gate)

    def alloc(self, count, role):
        start = len(self.roles)
        self.roles.extend([role] * count)
        return list(range(start, start + count))

    def x(self, t):
        self._emit("X", t)

    def cnot(self, c, t):
        self._emit("CNOT", t, (c,))

    def tof(self, c1, c2, t):
        self._emit("TOF", t, (c1, c2))

    def swap(self, a, b):
        self.cnot(a, b)
        self.cnot(b, a)
        self.cnot(a, b)

    def emit_inverse(self, emit_fn):
        """Run ``emit_fn`` and replace its output with the reversed gate list."""
        start = len(self.gates)
        emit_fn()
        block = self.gates[start:]
        del self.gates[start:]
        self.gates.extend(reversed(block))

    # --- ripple-carry addition (target += addend mod 2^width) ---

    def cuccaro_add(self, addend, target, cin, cout=None):
        if len(addend) != len(target):
            raise ValueError("adder registers must have equal width")
        n = len(addend)
        carries = [cin] + addend[:-1]
        for i in range(n):
            c, b, a = carries[i], target[i], addend[i]
            self.cnot(a, b)
            self.cnot(a, c)
            self.tof(c, b, a)
        if cout is not None:
            self.cnot(addend[-1], cout)
        for i in reversed(range(n)):
            c, b, a = carries[i], target[i], addend[i]
            self.tof(c, b, a)
            self.cnot(a, c)
            self.cnot(c, b)

    def sub_with_borrow(self, addend, target, cin, borrow=None):
        """target -= addend mod 2^width; borrow ^= [target < addend]."""
        for w in target:
            self.x(w)
        self.cuccaro_add(addend, target, cin, cout=borrow)
        for w in target:
            self.x(w)


class _ModularUnit:
    """Shared scratch block for modular arithmetic over one modulus."""

    def __init__(self, builder, modulus):
        if modulus < 2:
            raise ValueError("modulus must be >= 2")
        self.b = builder
        self.modulus = modulus
        self.n = max(1, (modulus - 1).bit_length())
        self.w = builder.alloc(self.n + 1, "scratch")       # universal addend
        self.c0 = builder.alloc(1, "ancilla")[0]            # adder carry-in
        self.flag = builder.alloc(1, "ancilla")[0]          # compare flag

    def alloc_value_register(self):
        """n data wires plus one top scratch bit, all starting at 0."""
        return self.b.alloc(self.n + 1, "scratch")

    # addend loaders XOR a value into the scratch register self.w
    def _load_const(self, value, ctrl=None):
        for bit in range(self.n + 1):
            if (value >> bit) & 1:
                if ctrl is None:
                    self.b.x(self.w[bit])
                else:
                    self.b.cnot(ctrl, self.w[bit])

    def _load_reg(self, src, ctrl=None):
        for bit in range(self.n):
            if ctrl is None:
                self.b.cnot(src[bit], self.w[bit])
            else:
                self.b.tof(ctrl, src[bit], self.w[bit])

    def _reduce(self, target):
        """target mod modulus for target < 2 modulus; flag = [target < modulus]."""
        self._load_const(self.modulus)
        self.b.sub_with_borrow(self.w, target, self.c0, borrow=self.flag)
        self._load_const(self.modulus)
        self._load_const(self.modulus, ctrl=self.flag)
        self.b.cuccaro_add(self.w, target, self.c0)
        self._load_const(self.modulus, ctrl=self.flag)

    def _mod_add_core(self, target, loader):
        """target = (target + addend) mod modulus, addend provided by ``loader``.

        ``target`` is a value register (n + 1 wires, top scratch).  The loader
        is invoked four times: load/unload around the addition and again
        around the flag-uncomputing comparison.
        """
        b = self.b
        loader()
        b.cuccaro_add(self.w, target, self.c0)
        loader()  # unload: the loader XORs, so a second call clears
        self._reduce(target)
        b.x(self.flag)
        loader()
        b.sub_with_borrow(self.w, target, self.c0, borrow=self.flag)
        b.cuccaro_add(self.w, target, self.c0)
        loader()

    def add_reg(self, src, target, ctrl=None):
        self._mod_add_core(target, lambda: self._load_reg(src, ctrl))

    def sub_reg(self, src, target, ctrl=None):
        self.b.emit_inverse(lambda: self.add_reg(src, target, ctrl))

    def double(self, target):
        """target = 2 * target mod modulus (modulus odd)."""
        if self.modulus % 2 == 0:
            raise ValueError("doubling trick requires an odd modulus")
        b = self.b
        for i in range(self.n, 0, -1):  # left shift through the top scratch bit
            b.swap(target[i], target[i - 1])
        self._reduce(target)
        # flag = [2x < modulus]; the reduced value's parity uncomputes it
        b.x(self.flag)
        b.cnot(target[0], self.flag)

    def undouble(self, target):
        self.b.emit_inverse(lambda: self.double(target))

    def mult_accumulate(self, source, ell_wires, targets, subtract=False):
        """targets +-= (source * ell) mod N with ell read from control wires.

        The shifted source (source * 2^bit mod N) lives in a doubling register
        rebuilt from ``source`` and cleared afterwards.
        """
        b = self.b
        ds = self._mult_scratch
        step = self.sub_reg if subtract else self.add_reg
        for bit in range(self.n):
            b.cnot(source[bit], ds[bit])
        for bit, ctrl in enumerate(ell_wires):
            for target in targets:
                step(ds, target, ctrl=ctrl)
            if bit < len(ell_wires) - 1:
                self.double(ds)
        for _ in range(len(ell_wires) - 1):
            self.undouble(ds)
        for bit in range(self.n):
            b.cnot(source[bit], ds[bit])


def _finish(builder):
    return ReversibleCircuit(len(builder.roles), builder.roles, builder.gates)


def synth_decoupler(c_dim, g_prime, l_size):
    """Circuit acting as |i>|j>|l> -> |i + (j-i)l>|j + (j-i)l>|l> mod g_prime.

    Compute-swap-uncompute: fresh registers receive the rotated pair, are
    swapped with the data registers, and the stale values are cleared via
    i = new1 + l*(new1 - new2) and j = new2 + l*(new1 - new2).  The control on
    l decomposes into per-bit controlled shift-adds.  All helper wires return
    to zero on valid inputs (i, j < g_prime, l < l_size).
    """
    PrimeRegister(c_dim, g_prime)
    if not 1 <= l_size <= g_prime:
        raise ValueError(f"l_size {l_size} outside [1, {g_prime}]")
    b = _Builder()
    n = max(1, (g_prime - 1).bit_length())
    l_bits = max(1, (l_size - 1).bit_length())
    i_reg = b.alloc(n, "g1-data")
    j_reg = b.alloc(n, "g2-data")
    l_reg = b.alloc(l_bits, "l-control")
    unit = _ModularUnit(b, g_prime)
    p1 = unit.alloc_value_register()
    p2 = unit.alloc_value_register()
    t = unit.alloc_value_register()
    unit._mult_scratch = unit.alloc_value_register()

    def rotate(first, second, sign):
        # t <- second - first, p1 += sign (i + t l), p2 += sign (j + t l),
        # then t <- 0
        unit.add_reg(second, t)
        unit.sub_reg(first, t)
        step = unit.add_reg if sign > 0 else unit.sub_reg
        step(i_reg, p1)
        step(j_reg, p2)
        unit.mult_accumulate(t, l_reg, [p1, p2], subtract=sign < 0)
        unit.add_reg(first, t)
        unit.sub_reg(second, t)

    # compute: p1 <- i + (j - i) l, p2 <- j + (j - i) l
    rotate(i_reg, j_reg, +1)
    for a, c in zip(i_reg + j_reg, p1[:n] + p2[:n]):
        b.swap(a, c)
    # uncompute: p1/p2 hold old i/j = new + l*(new1 - new2)
    rotate(j_reg, i_reg, -1)

    return _finish(b)


def synth_swap():
    """Two-wire swap fragment: three CNOT gates, depth three."""
    b = _Builder()
    b.alloc(2, "data")
    b.swap(0, 1)
    return _finish(b)


def encode_decoupler_input(n_bits, l_bits, i, j, ell, wire_count):
    """Little-endian bit layout matching synth_decoupler's wire allocation."""
    bits = [(v >> k) & 1 for v, width in ((i, n_bits), (j, n_bits), (ell, l_bits))
            for k in range(width)]
    return bits + [0] * (wire_count - len(bits))
