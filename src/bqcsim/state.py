"""Sparse statevector over tuples of named bitstring registers.

The server's quantum memory is a normalized map from branch value-tuples to
complex amplitudes. Honest protocol states only ever contain a small number
of branches (at most 2 per gadget register), so every operation enumerates
branches rather than a 2^n Hilbert space.

Every coherent evaluation (oracle queries, table decryption, pads) is one
value map, :meth:`SparseState.map_register`: a register's value becomes a
function of itself and of the concatenated values of key registers, and
the function is evaluated once per distinct pair of values, however many
branches share it. Both measurements draw their outcome with one
``rng.random()`` through the same inverse-CDF sampler, and discarding a
register factors it out of the amplitudes grouped by the other registers'
values.

The one non-obvious primitive is :meth:`SparseState.measure_hadamard`. A
register can be hundreds of bits wide, so the outcome ``d`` is never sampled
by enumerating 2^width candidates. An honest register holds a gadget, at
most two values s0 and s1, and only the parity ``d . (s0 xor s1)`` affects
the outcome distribution: the parity is drawn with its interference weight,
then ``d`` uniformly among the strings with that parity.
"""

from __future__ import annotations

import cmath
import math

from .bits import apply_perm, bits_to_int, int_to_bits, parity

ATOL = 1e-9


class EntangledDiscardError(ValueError):
    pass


class SparseState:
    def __init__(self):
        self.registers: list[tuple[str, int]] = []
        self.branches: dict[tuple[str, ...], complex] = {(): 1.0 + 0.0j}
        self._name_counter = 0

    # -- bookkeeping -------------------------------------------------------

    def fresh_name(self, prefix: str = "r") -> str:
        self._name_counter += 1
        return f"{prefix}{self._name_counter}"

    def _index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.registers):
            if n == name:
                return i
        raise KeyError(f"no register named {name!r}")

    def width(self, name: str) -> int:
        return self.registers[self._index(name)][1]

    def norm(self) -> float:
        return math.sqrt(sum(abs(a) ** 2 for a in self.branches.values()))

    def renormalize(self) -> None:
        n = self.norm()
        if n < ATOL:
            raise ValueError("state has collapsed to zero norm")
        self.branches = {k: v / n for k, v in self.branches.items()}

    # -- construction ------------------------------------------------------

    def add_register(self, name: str, value: str) -> str:
        """Tensor on a register in a computational basis state."""
        if any(n == name for n, _ in self.registers):
            raise ValueError(f"register {name!r} already exists")
        self.registers.append((name, len(value)))
        self.branches = {k + (value,): v for k, v in self.branches.items()}
        return name

    def add_gadget(self, name: str, x0: str, x1: str) -> str:
        """Tensor on a register in state (|x0> + |x1>)/sqrt(2)."""
        if x0 == x1:
            raise ValueError("gadget requires two different keys")
        if len(x0) != len(x1):
            raise ValueError("gadget keys must have equal width")
        if any(n == name for n, _ in self.registers):
            raise ValueError(f"register {name!r} already exists")
        self.registers.append((name, len(x0)))
        s = 1 / math.sqrt(2)
        new = {}
        for k, v in self.branches.items():
            new[k + (x0,)] = v * s
            new[k + (x1,)] = v * s
        self.branches = new
        return name

    # -- branch maps -------------------------------------------------------

    def map_register(self, dst: str, fn, keys=(),
                     width: int | None = None) -> None:
        """dst value <- fn(dst value, key), branch by branch.

        ``key`` is the concatenation of the values of the ``keys`` registers
        ("" without keys). ``fn`` must be pure: it is called once per
        distinct (dst value, key) pair, in branch order, and its image is
        reused for every branch with that pair. Every image must be
        ``width`` bits wide (default: the width of dst); branches mapped
        onto the same values add up.
        """
        j = self._index(dst)
        ki = [self._index(r) for r in keys]
        w = self.registers[j][1] if width is None else width
        images: dict[tuple[str, str], str] = {}
        new: dict[tuple[str, ...], complex] = {}
        for k, v in self.branches.items():
            arg = (k[j], "".join([k[i] for i in ki]))
            nv = images.get(arg)
            if nv is None:
                nv = images[arg] = fn(*arg)
                if len(nv) != w:
                    raise ValueError(f"map_register: image width {len(nv)}, "
                                     f"expected {w}")
            nk = k[:j] + (nv,) + k[j + 1:]
            new[nk] = new.get(nk, 0) + v
        self.registers[j] = (dst, w)
        self.branches = {k: v for k, v in new.items() if abs(v) > ATOL}

    def apply_phase_per_branch(self, name: str, phase_fn) -> None:
        """Multiply each branch amplitude by exp(i * phase_fn(value))."""
        i = self._index(name)
        self.branches = {
            k: v * cmath.exp(1j * phase_fn(k[i])) for k, v in self.branches.items()
        }

    def apply_bitwise_permutation(self, name: str, perm) -> None:
        if len(perm) != self.width(name):
            raise ValueError("permutation length mismatch")
        self.map_register(name, lambda s, _: apply_perm(s, perm))

    # -- measurements ------------------------------------------------------

    def measure_computational(self, name: str, rng, observable=None):
        """Measure a register in the computational basis; it stays in place.

        Returns the outcome and keeps only the branches that agree with it.
        With ``observable``, the measured quantity is ``observable(value)``
        (any sortable function of the register's value) instead of the value.
        """
        i = self._index(name)
        outs = [k[i] for k in self.branches]
        if observable is not None:
            outs = [observable(o) for o in outs]
        weights: dict = {}
        for o, v in zip(outs, self.branches.values()):
            weights[o] = weights.get(o, 0.0) + abs(v) ** 2
        values = sorted(weights)
        outcome = values[self._inverse_cdf([weights[o] for o in values], rng)]
        self.branches = {k: v for o, (k, v) in zip(outs, self.branches.items())
                         if o == outcome}
        self.renormalize()
        return outcome

    def measure_hadamard(self, name: str, rng) -> str:
        """Hadamard-measure every qubit of a register.

        Returns the outcome string ``d``, removes the register, and applies
        the residual phase (-1)^(d . s) for each branch's former value ``s``.
        Raises ValueError if the register holds more than two values: an
        honest register holds a gadget.
        """
        i = self._index(name)
        w = self.registers[i][1]
        values = sorted({k[i] for k in self.branches})
        if len(values) > 2:
            raise ValueError(f"register {name!r} holds {len(values)} values; "
                             "a Hadamard measurement takes at most two")
        diff = bits_to_int(values[0]) ^ bits_to_int(values[-1])
        lead = diff.bit_length() - 1  # -1 for a single value

        # interference weight of the parity d . (s0 xor s1) = 0, then = 1
        ctx_amps = self._by_context(i)
        weights = []
        for p in range(len(values)):
            wsum = 0.0
            for amps in ctx_amps.values():
                acc = 0j
                for s, a in amps.items():
                    acc += a * (-1) ** (p * (s != values[0]))
                wsum += abs(acc) ** 2
            weights.append(wsum)
        par = self._inverse_cdf(weights, rng)

        # d uniform on {d : d . diff = par}: every other bit is random, then
        # the lead bit of diff fixes the parity
        d_int = 0
        for bit in range(w):
            if bit != lead and rng.random() < 0.5:
                d_int |= 1 << bit
        if lead >= 0 and parity(d_int & diff) != par:
            d_int |= 1 << lead
        d = int_to_bits(d_int, w)

        sign = {s: (-1) ** parity(d_int & bits_to_int(s)) for s in values}
        new: dict[tuple[str, ...], complex] = {}
        for ctx, amps in ctx_amps.items():
            acc = 0
            for s, a in amps.items():
                acc += a * sign[s]
            new[ctx] = acc
        self.registers.pop(i)
        self.branches = {k: v for k, v in new.items() if abs(v) > ATOL}
        self.renormalize()
        return d

    @staticmethod
    def _inverse_cdf(weights: list[float], rng) -> int:
        """Index i with probability weights[i] / sum(weights).

        Draws exactly one ``rng.random()``.
        """
        pick = rng.random() * sum(weights)
        acc = 0.0
        for i, wt in enumerate(weights):
            acc += wt
            if pick <= acc:
                return i
        return len(weights) - 1

    # -- register plumbing -------------------------------------------------

    def split_register(self, name: str, widths: list[int],
                       new_names: list[str]) -> list[str]:
        i = self._index(name)
        if sum(widths) != self.registers[i][1]:
            raise ValueError("split widths must sum to register width")
        self.registers[i:i + 1] = list(zip(new_names, widths))
        new: dict[tuple[str, ...], complex] = {}
        for k, v in self.branches.items():
            parts, off = [], 0
            for w in widths:
                parts.append(k[i][off:off + w])
                off += w
            new[k[:i] + tuple(parts) + k[i + 1:]] = v
        self.branches = new
        return new_names

    def merge_registers(self, names: list[str], new_name: str) -> str:
        """Concatenate registers (in ``names`` order) into one register.

        The merged register takes the position of the first of them.
        """
        idxs = [self._index(n) for n in names]
        pos = min(idxs)
        rest = [j for j in range(pos + 1, len(self.registers)) if j not in idxs]
        total = sum(self.registers[i][1] for i in idxs)
        self.registers = (self.registers[:pos] + [(new_name, total)]
                          + [self.registers[j] for j in rest])
        self.branches = {
            k[:pos] + ("".join([k[i] for i in idxs]),)
            + tuple([k[j] for j in rest]): v
            for k, v in self.branches.items()
        }
        return new_name

    def _by_context(self, i: int) -> dict[tuple[str, ...], dict[str, complex]]:
        """Amplitudes grouped by the other registers' values, then by register i's."""
        ctx_amps: dict[tuple[str, ...], dict[str, complex]] = {}
        for k, v in self.branches.items():
            ctx_amps.setdefault(k[:i] + k[i + 1:], {})[k[i]] = v
        return ctx_amps

    def discard_register(self, name: str) -> dict[str, complex]:
        """Remove an unentangled register (constant or factorizable).

        Returns the register's normalized amplitudes by value. Raises
        EntangledDiscardError unless the state is a product of the register
        and the rest.
        """
        i = self._index(name)
        ctx_amps = self._by_context(i)
        first = next(iter(ctx_amps.values()))
        gnorm = math.sqrt(sum(abs(a) ** 2 for a in first.values()))
        g = {s: a / gnorm for s, a in first.items()}
        s0 = next(iter(g))
        out: dict[tuple[str, ...], complex] = {}
        for ctx, amps in ctx_amps.items():
            if amps.keys() != g.keys():
                raise EntangledDiscardError("entangled discard")
            r = amps[s0] / g[s0]
            for s, gs in g.items():
                if abs(amps[s] - r * gs) > 1e-7:
                    raise EntangledDiscardError("entangled discard")
            out[ctx] = r
        self.registers.pop(i)
        self.branches = out
        return g

    def extract_qubit(self, name: str) -> tuple[complex, complex]:
        """Remove an unentangled 1-bit register and return its (alpha, beta)."""
        if self.width(name) != 1:
            raise ValueError("extract_qubit needs a 1-bit register")
        g = self.discard_register(name)
        return g.get("0", 0j), g.get("1", 0j)

    # -- comparison --------------------------------------------------------

    def fidelity(self, other: "SparseState") -> float:
        """|<other|self>|^2, matching registers by name."""
        mine = {n: w for n, w in self.registers}
        theirs = {n: w for n, w in other.registers}
        if mine != theirs:
            raise ValueError("register mismatch between states")
        order = [other._index(n) for n, _ in self.registers]
        inner = 0j
        for k, v in other.branches.items():
            mk = tuple(k[i] for i in order)
            a = self.branches.get(mk)
            if a is not None:
                inner += a * v.conjugate()
        return abs(inner) ** 2


def gadget_state(pairs_with_names) -> SparseState:
    """Build the tensor product of gadgets [(name, x0, x1), ...]."""
    st = SparseState()
    for name, x0, x1 in pairs_with_names:
        st.add_gadget(name, x0, x1)
    return st
