"""Sparse statevector over tuples of named bitstring registers.

The server's quantum memory is a product of *components*. A component holds
some registers and a map from their value-tuples to complex amplitudes, kept
at unit norm, and the state is known up to a global phase. Honest protocol
states only ever contain a small number of branches per component (at most
2 per gadget register), so every operation enumerates one component's
branches rather than a 2^n Hilbert space, and independent gadgets cost the
sum of their sizes, not the product.

Adding a register starts a new component. An operation on several registers
first joins their components by a product. After a value map, a measurement,
a split or a merge, every register that factors out of the touched
component is peeled off into a component of its own by a rank-1 test; a
component left with no register is only a global phase, and is dropped.
A phase on one register's values is local and changes no factor. So a
register that shares its component is entangled with it, and only a
register that is a component of its own can be discarded.
:attr:`SparseState.branches` is only the product's branch count, and no
code path expands the whole product: its one reader is the bench tracer,
and ROADMAP item 1 removes it.

Every coherent evaluation (oracle queries, table decryption, pads) is one
reversible value map, :meth:`SparseState.map_register`: a register's value
becomes a function of itself and of the concatenated values of key
registers, evaluated once per branch of the components that hold those
registers, never over the whole product. A map under which two branches
would meet is refused, so every map is unitary. Both measurements draw
their outcome with one ``rng.random()`` through the same inverse-CDF
sampler.

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

from .bits import bits_to_int, int_to_bits, parity

ATOL = 1e-9


class EntangledDiscardError(ValueError):
    pass


class _Component:
    """Registers that may be entangled with each other, and their branches."""

    __slots__ = ("names", "branches")

    def __init__(self, names: list[str], branches: dict):
        self.names = names
        self.branches: dict[tuple[str, ...], complex] = branches


def _norm(branches: dict) -> float:
    return math.sqrt(sum(abs(a) ** 2 for a in branches.values()))


def _by_context(branches: dict, i: int) -> dict:
    """Amplitudes grouped by the other registers' values, then by register i's."""
    ctx_amps: dict[tuple[str, ...], dict[str, complex]] = {}
    for k, v in branches.items():
        ctx_amps.setdefault(k[:i] + k[i + 1:], {})[k[i]] = v
    return ctx_amps


def _factor(branches: dict, i: int):
    """Split register i off ``branches`` if they are a product with it.

    Returns (g, rest) with branches[ctx + s] = rest[ctx] * g[s] within 1e-7
    and g normalized from the first context's amplitudes, or None if
    register i is entangled with the others.
    """
    ctx_amps = _by_context(branches, i)
    first = next(iter(ctx_amps.values()))
    if any(amps.keys() != first.keys() for amps in ctx_amps.values()):
        return None
    gnorm = _norm(first)
    g = {s: a / gnorm for s, a in first.items()}
    s0 = next(iter(g))
    rest: dict[tuple[str, ...], complex] = {}
    for ctx, amps in ctx_amps.items():
        r = amps[s0] / g[s0]
        for s, gs in g.items():
            if abs(amps[s] - r * gs) > 1e-7:
                return None
        rest[ctx] = r
    return g, rest


def _join(comps) -> _Component:
    """The product of ``comps``, nested in their order, as one component."""
    joined = _Component([], {(): 1})
    for c in comps:
        joined.names += c.names
        joined.branches = {k + ck: a * ca
                           for k, a in joined.branches.items()
                           for ck, ca in c.branches.items()}
    return joined


class _Count:
    """A size with no contents: ``len()`` is all it answers."""

    __slots__ = ("_n",)

    def __init__(self, n: int):
        self._n = n

    def __len__(self) -> int:
        return self._n


class SparseState:
    def __init__(self):
        # register -> (order key, width). Order keys sort in register order
        # and never change while the register lives: an added register
        # takes (n,) from a counter, the parts of a split one extend its
        # key, and a merged one takes the least key of its parts.
        self._regs: dict[str, tuple[tuple[int, ...], int]] = {}
        self._added = 0
        self._where: dict[str, _Component] = {}  # register -> its component

    # -- bookkeeping -------------------------------------------------------

    def _reg(self, name: str) -> tuple[tuple[int, ...], int]:
        """The order key and width of register ``name``."""
        reg = self._regs.get(name)
        if reg is None:
            raise KeyError(f"no register named {name!r}")
        return reg

    @property
    def registers(self) -> list[tuple[str, int]]:
        """(name, width) of every register, in order."""
        return [(n, w) for n, (_, w) in
                sorted(self._regs.items(), key=lambda r: r[1][0])]

    def _locate(self, name: str) -> tuple[_Component, int]:
        """The component holding register ``name``, and its position there."""
        self._reg(name)  # raises KeyError for an unknown name
        comp = self._where[name]
        return comp, comp.names.index(name)

    def _components(self) -> list[_Component]:
        """Every component, in the order of its first register."""
        return list(dict.fromkeys(self._where[n] for n, _ in self.registers))

    def components(self) -> list[tuple[tuple[str, ...], int]]:
        """(register names, branch count) of every component."""
        return [(tuple(c.names), len(c.branches)) for c in self._components()]

    def width(self, name: str) -> int:
        return self._reg(name)[1]

    @staticmethod
    def _normalize(comp: _Component) -> None:
        """Scale ``comp`` to unit norm.

        Every other component already has unit norm, so the whole state
        then has too.
        """
        n = _norm(comp.branches)
        if n < ATOL:
            raise ValueError("state has collapsed to zero norm")
        comp.branches = {k: v / n for k, v in comp.branches.items()}

    @property
    def branches(self) -> _Count:
        """The number of branches of the whole product, as ``len()``.

        It costs one multiplication per component and exposes no key or
        amplitude. Its one reader is the bench tracer; ROADMAP item 1
        removes it.
        """
        return _Count(math.prod(len(c.branches)
                                for c in dict.fromkeys(self._where.values())))

    def _expand(self, names: list[str]) -> dict[tuple[str, ...], complex]:
        """Branches of the product of the components holding ``names``,
        keyed by values in ``names`` order.

        ``names`` must list every register of those components.
        """
        joined = _join(dict.fromkeys(self._where[n] for n in names))
        order = [joined.names.index(n) for n in names]
        return {tuple([k[i] for i in order]): a
                for k, a in joined.branches.items()}

    def _joined(self, names) -> _Component:
        """One component over the components holding ``names``.

        With more than one, a new component (their product, nested in the
        order of each one's first register) that the caller installs once
        its operation has succeeded; the state itself is left unchanged.
        """
        touched = list(dict.fromkeys(self._locate(n)[0] for n in names))
        if len(touched) == 1:
            return touched[0]
        touched.sort(key=lambda c: min(self._regs[n][0] for n in c.names))
        return _join(touched)

    def _refactor(self, comp: _Component) -> None:
        """Peel every register that factors out of ``comp`` into its own
        component. A component left without registers is only a global
        phase; nothing refers to it, so it is gone."""
        for i in reversed(range(len(comp.names))):
            if len(comp.names) == 1:
                return
            parts = _factor(comp.branches, i)
            if parts is not None:
                g, comp.branches = parts
                name = comp.names.pop(i)
                self._where[name] = _Component(
                    [name], {(s,): a for s, a in g.items()})

    # -- construction ------------------------------------------------------

    def _add(self, name: str, width: int, branches: dict) -> str:
        if name in self._where:
            raise ValueError(f"register {name!r} already exists")
        self._regs[name] = ((self._added,), width)
        self._added += 1
        self._where[name] = _Component([name], branches)
        return name

    def add_register(self, name: str, value: str) -> str:
        """Tensor on a register in a computational basis state."""
        return self._add(name, len(value), {(value,): 1.0})

    def add_gadget(self, name: str, x0: str, x1: str) -> str:
        """Tensor on a register in state (|x0> + |x1>)/sqrt(2)."""
        if x0 == x1:
            raise ValueError("gadget requires two different keys")
        if len(x0) != len(x1):
            raise ValueError("gadget keys must have equal width")
        s = 1 / math.sqrt(2)
        return self._add(name, len(x0), {(x0,): s, (x1,): s})

    # -- branch maps -------------------------------------------------------

    def map_register(self, dst: str, fn, keys=(),
                     width: int | None = None) -> None:
        """dst value <- fn(dst value, key), branch by branch.

        ``key`` is the concatenation of the values of the ``keys`` registers
        ("" without keys). ``fn`` must be pure: it is called once per
        branch of the components that hold dst and the keys registers, in
        branch order. Every image must be ``width`` bits wide (default: the
        width of dst). The map must be reversible on the branches present:
        if two of them would meet, it raises ValueError and the state is
        left as it was.
        """
        order, w = self._reg(dst)
        if width is not None:
            w = width
        comp = self._joined([dst, *keys])
        d = comp.names.index(dst)
        ki = [comp.names.index(r) for r in keys]
        new: dict[tuple[str, ...], complex] = {}
        for k, v in comp.branches.items():
            nv = fn(k[d], "".join([k[i] for i in ki]))
            if len(nv) != w:
                raise ValueError(f"map_register: image width {len(nv)}, "
                                 f"expected {w}")
            new[k[:d] + (nv,) + k[d + 1:]] = v
        if len(new) < len(comp.branches):
            raise ValueError("map_register: two branches map onto the same "
                             "values")
        self._regs[dst] = (order, w)
        comp.branches = new
        for name in comp.names:
            self._where[name] = comp
        self._refactor(comp)

    def apply_phase_per_branch(self, name: str, phase_fn) -> None:
        """Multiply each branch amplitude by exp(i * phase_fn(value))."""
        comp, i = self._locate(name)
        comp.branches = {k: v * cmath.exp(1j * phase_fn(k[i]))
                         for k, v in comp.branches.items()}

    # -- measurements ------------------------------------------------------

    def measure_computational(self, name: str, rng, observable=None):
        """Measure a register in the computational basis; it stays in place.

        Returns the outcome and keeps only the branches that agree with it.
        With ``observable``, the measured quantity is ``observable(value)``
        (any sortable function of the register's value) instead of the value.
        """
        comp, i = self._locate(name)
        outs = [k[i] for k in comp.branches]
        if observable is not None:
            outs = [observable(o) for o in outs]
        weights: dict = {}
        for o, v in zip(outs, comp.branches.values()):
            weights[o] = weights.get(o, 0.0) + abs(v) ** 2
        values = sorted(weights)
        outcome = values[self._inverse_cdf([weights[o] for o in values], rng)]
        comp.branches = {k: v for o, (k, v) in zip(outs, comp.branches.items())
                         if o == outcome}
        self._normalize(comp)
        self._refactor(comp)
        return outcome

    def measure_hadamard(self, name: str, rng) -> str:
        """Hadamard-measure every qubit of a register.

        Returns the outcome string ``d``, removes the register, and applies
        the residual phase (-1)^(d . s) for each branch's former value ``s``.
        Raises ValueError if the register holds more than two values: an
        honest register holds a gadget.
        """
        w = self.width(name)
        comp, i = self._locate(name)
        values = sorted({k[i] for k in comp.branches})
        if len(values) > 2:
            raise ValueError(f"register {name!r} holds {len(values)} values; "
                             "a Hadamard measurement takes at most two")
        diff = bits_to_int(values[0]) ^ bits_to_int(values[-1])
        lead = diff.bit_length() - 1  # -1 for a single value

        # contract the register against each parity p of d . (s0 xor s1);
        # the squared norm of contraction p is the weight of parity p
        ctx_amps = _by_context(comp.branches, i)
        contracted, weights = [], []
        for p in range(len(values)):
            new: dict[tuple[str, ...], complex] = {}
            wsum = 0.0
            for ctx, amps in ctx_amps.items():
                acc = 0j
                for s, a in amps.items():
                    acc += a * (-1) ** (p * (s != values[0]))
                new[ctx] = acc
                wsum += abs(acc) ** 2
            contracted.append(new)
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

        # contraction par already gives s1 its sign relative to s0, so the
        # residual phase (-1)^(d . s) leaves only (-1)^(d . s0) to apply
        sign = (-1) ** parity(d_int & bits_to_int(values[0]))
        del self._regs[name]
        del self._where[name]
        comp.names.pop(i)
        comp.branches = {k: v * sign for k, v in contracted[par].items()
                         if abs(v) > ATOL}
        self._normalize(comp)
        self._refactor(comp)
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
        order, w = self._reg(name)
        if sum(widths) != w:
            raise ValueError("split widths must sum to register width")
        if len(widths) != len(new_names) or min(widths, default=0) < 1:
            raise ValueError("split_register: one positive width per new name")
        if len(set(new_names)) < len(new_names):
            raise ValueError(f"split_register: repeated name in {new_names}")
        for n in new_names:
            if n != name and n in self._regs:
                raise ValueError(f"register {n!r} already exists")
        comp, c = self._locate(name)
        del self._regs[name]
        for i, (n, nw) in enumerate(zip(new_names, widths)):
            self._regs[n] = (order + (i,), nw)
        del self._where[name]
        comp.names[c:c + 1] = new_names
        new: dict[tuple[str, ...], complex] = {}
        for k, v in comp.branches.items():
            parts, off = [], 0
            for w in widths:
                parts.append(k[c][off:off + w])
                off += w
            new[k[:c] + tuple(parts) + k[c + 1:]] = v
        comp.branches = new
        for n in new_names:
            self._where[n] = comp
        self._refactor(comp)
        return new_names

    def merge_registers(self, names: list[str], new_name: str) -> str:
        """Concatenate registers into one register.

        The merged register takes the earliest position, in register order,
        of the registers it replaces, and its value joins their values in
        ``names`` order. ``new_name`` may be one of ``names``.
        """
        regs = [self._reg(n) for n in names]
        if len(set(names)) < len(names):
            raise ValueError(f"merge_registers: repeated name in {names}")
        if new_name in self._regs and new_name not in names:
            raise ValueError(f"register {new_name!r} already exists")
        comp = self._joined(names)
        ci = [comp.names.index(n) for n in names]
        keep = [j for j in range(len(comp.names)) if j not in ci]
        comp.branches = {
            ("".join([k[i] for i in ci]),) + tuple([k[j] for j in keep]): v
            for k, v in comp.branches.items()
        }
        for n in names:
            self._where.pop(n, None)
            self._regs.pop(n, None)
        self._regs[new_name] = (min(o for o, _ in regs),
                                sum(w for _, w in regs))
        comp.names = [new_name] + [comp.names[j] for j in keep]
        for n in comp.names:
            self._where[n] = comp
        # registers entangled only with each other merge into one that may
        # factor out of the rest
        self._refactor(comp)
        return new_name

    def discard_register(self, name: str) -> dict[str, complex]:
        """Remove a register and return its normalized amplitudes by value.

        Every operation peels off the registers that factor out, so one
        that shares its component is entangled: EntangledDiscardError, and
        the state is left as it was. The amplitudes' global phase is
        arbitrary.
        """
        comp, _ = self._locate(name)
        if len(comp.names) > 1:
            raise EntangledDiscardError("entangled discard")
        n = _norm(comp.branches)
        del self._regs[name]
        del self._where[name]
        return {s: a / n for (s,), a in comp.branches.items()}

    # -- comparison --------------------------------------------------------

    def fidelity(self, other: "SparseState") -> float:
        """|<other|self>|^2, matching registers by name.

        The inner product factors over the coarsest partition of the
        registers that both states' components refine, so only each part
        of it is expanded.
        """
        mine = {n: w for n, w in self.registers}
        theirs = {n: w for n, w in other.registers}
        if mine != theirs:
            raise ValueError("register mismatch between states")
        pos = {n: i for i, n in enumerate(mine)}
        block = {n: [n] for n in mine}
        for st in (self, other):
            for c in st._components():
                merged = sorted({m for n in c.names for m in block[n]},
                                key=pos.get)
                for n in merged:
                    block[n] = merged
        inner = 1
        for names in {id(b): b for b in block.values()}.values():
            amps = self._expand(names)
            inner *= sum(amps.get(k, 0) * v.conjugate()
                         for k, v in other._expand(names).items())
        return abs(inner) ** 2


def gadget_state(pairs_with_names) -> SparseState:
    """Build the tensor product of gadgets [(name, x0, x1), ...]."""
    st = SparseState()
    for name, x0, x1 in pairs_with_names:
        st.add_gadget(name, x0, x1)
    return st
