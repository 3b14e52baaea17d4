"""Spans around calls into each bqcsim layer, installed from outside it.

A :class:`Tracer` wraps the public functions of the layer modules, the
public methods of the layer classes, and the private ``RandomOracle._prf``
(the hash boundary: coherent table work reaches it through ``_lookup``
without passing any public oracle method). Wrappers replace every module
global that refers to a wrapped function, so names bound with
``from ... import`` in other modules are traced too.

Each span records its name, start, end, parent span and operation id. Spans
stay in memory until :meth:`Tracer.write` is called. A span's self time is
its duration minus the durations of its child spans; spans never overlap
because the workloads are single-threaded.

``bits`` and ``keychain`` are not wrapped: each call costs about 2 us, so a
wrapper would mostly measure itself. Their time counts in the caller's self
time. ``cli`` is not a layer: the benchmark calls the library directly.
"""

from __future__ import annotations

import inspect
import sys
from array import array
from time import perf_counter

LAYERS = ("oracle", "state", "tables", "protocols", "gadget_prep",
          "qfactory", "adversary")
# (module, class name, methods to wrap); None means every public method
CLASSES = (
    ("oracle", "RandomOracle",
     ("__init__", "_prf", "query_classical", "query_superposed", "tag")),
    ("state", "SparseState", None),
    ("protocols", "HonestServer", None),
    ("adversary", "MeasureThenRandomD", None),
)

MAP_OPS = ("map_register", "map_pair", "map_multi", "transform_register",
           "apply_phase_per_branch")
PLUMBING_OPS = ("add_register", "add_gadget", "split_register",
                "merge_registers", "rename_register")
MEASURE_OPS = ("measure_computational", "measure_hadamard")
FACTOR_OPS = ("discard_register", "extract_qubit")
TABLE_BUILD = ("enc", "lt_build", "revlt_build", "robust_rlt_build",
               "phase_lt_build")
CLIENT_DRIVERS = ("pad_hadamard", "basis_test_single", "basis_test_multi",
                  "basis_test_two", "combine")
STAGES = {"1pn": "gdgprep_1pn", "logk": "gdgprep_logk",
          "repeat": "gdgprep_repeat", "refresh": "security_refreshing",
          "oneround": "gdgprep_oneround", "full": "gdgprep_full"}


class Tracer:
    """Records spans and layer counts while :attr:`active` is true."""

    def __init__(self, clock=perf_counter):
        self.clock = clock  # the span clock; see workloads.HostClock
        self.active = False
        self.op_id = -1
        self.labels: list[str] = []
        self._label_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        # counts taken at the layer boundaries
        self.map_branches = 0
        self.peak_branches = 0
        self.eval_rows = 0
        self.decrypt_calls = 0
        self.decrypt_hits = 0
        self.serialized_bytes = 0
        self.stage_server_queries = {stage: 0 for stage in STAGES}
        self.queries = {"client": 0, "server": 0, "attacker": 0}
        self.messages = 0
        self.transcript_bytes = 0
        self.failed_transcripts = 0
        self._oracles: list[object] = []

    # -- installing wrappers ------------------------------------------------

    def install(self, package) -> None:
        """Wrap the layers of ``package`` (the imported ``bqcsim`` modules)."""
        originals: dict[int, object] = {}
        for layer in LAYERS:
            mod = getattr(package, layer)
            for attr, fn in list(vars(mod).items()):
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    originals[id(fn)] = self._wrap(f"{layer}.{attr}", fn,
                                                   method=False)
        for layer, cls_name, methods in CLASSES:
            cls = getattr(getattr(package, layer), cls_name)
            names = methods or [
                m for m, v in vars(cls).items()
                if inspect.isfunction(v) and not m.startswith("_")]
            for m in names:
                self._patch(cls, m, self._wrap(f"{layer}.{m}", vars(cls)[m],
                                               method=True))
        for mod_name, mod in list(sys.modules.items()):
            if not mod_name.startswith(package.__name__ + "."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    self._patch(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            obj, attr, original = self._patched.pop()
            setattr(obj, attr, original)

    def _patch(self, obj, attr: str, value) -> None:
        self._patched.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def _label(self, label: str) -> int:
        if label not in self._label_ids:
            self._label_ids[label] = len(self.labels)
            self.labels.append(label)
        return self._label_ids[label]

    def _wrap(self, label: str, fn, method: bool):
        nid = self._label(label)
        pre, post = self._hooks(label, method)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.op.append(tracer.op_id)
            tracer.end.append(0.0)
            token = pre(args, kwargs) if pre else None
            stack.append(idx)
            tracer.start.append(tracer.clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = tracer.clock()
                stack.pop()
            if post:
                post(args, kwargs, result, token)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _hooks(self, label: str, method: bool):
        """Counts read at a boundary: (before-call, after-call) callables."""
        layer, _, fn = label.partition(".")
        if layer == "state" and method:
            def peak(args, kwargs, result, token):
                self.peak_branches = max(self.peak_branches,
                                         len(args[0].branches))
            if fn in MAP_OPS:
                def entering(args, kwargs):
                    self.map_branches += len(args[0].branches)
                return entering, peak
            return None, peak
        if label == "oracle.__init__":
            return None, lambda a, k, r, t: self._oracles.append(a[0])
        if label == "tables.lt_eval_coherent":
            def rows(args, kwargs):
                table = args[4] if len(args) > 4 else kwargs["table"]
                self.eval_rows += len(table.rows)
            return rows, None
        if label == "tables.lt_decrypt":
            def hit(args, kwargs, result, token):
                self.decrypt_calls += 1
                self.decrypt_hits += result is not None
            return None, hit
        if label == "tables.serialize_table":
            def size(args, kwargs, result, token):
                self.serialized_bytes += len(result.encode())
            return None, size
        for stage, stage_fn in STAGES.items():
            if label == f"gadget_prep.{stage_fn}":
                def before(args, kwargs):
                    return args[0].counters.get("server", 0)

                def after(args, kwargs, result, q0, stage=stage):
                    self.stage_server_queries[stage] += (
                        args[0].counters.get("server", 0) - q0)
                return before, after
        return None, None

    # -- operations ---------------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self.active = True

    def end_op(self) -> None:
        """Stop recording and read the op's oracles' query counters."""
        self.active = False
        seen = set()
        for orc in self._oracles:
            if id(orc.counters) in seen:
                continue  # blinded views share their base's counters
            seen.add(id(orc.counters))
            for party, n in orc.counters.items():
                self.queries[party] = self.queries.get(party, 0) + n
        self._oracles.clear()

    def add_transcripts(self, transcripts) -> None:
        for tr in transcripts:
            self.messages += len(tr.messages)
            self.transcript_bytes += len(tr.serialize().encode())
            self.failed_transcripts += not tr.passed

    # -- results ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics computed from the spans and counts."""
        import numpy as np

        name, parent, start, end = (np.array(a) for a in (
            self.name, self.parent, self.start, self.end))
        dur = end - start
        nested = parent >= 0
        self_t = dur.copy()
        np.subtract.at(self_t, parent[nested], dur[nested])
        labels, k = self.labels, len(self.labels)
        count = dict(zip(labels, np.bincount(name, minlength=k).tolist()))
        incl = dict(zip(labels, np.bincount(name, dur, k).tolist()))
        own = dict(zip(labels, np.bincount(name, self_t, k).tolist()))

        def outermost(group) -> float:
            """Time in spans of ``group`` not nested in another of them."""
            member = np.isin(name, [self._label_ids[g] for g in group])
            inside = np.zeros(len(name), dtype=bool)
            anc = parent.copy()
            while (live := anc >= 0).any():
                inside[live] |= member[anc[live]]
                anc[live] = parent[anc[live]]
            return float(dur[member & ~inside].sum())

        def under(child_label: str, parent_label: str):
            """Indices of child spans directly under a parent span."""
            child = np.flatnonzero((name == self._label_ids[child_label])
                                   & nested)
            return child[name[parent[child]] == self._label_ids[parent_label]]

        # prep share: time from each delegation's start to its shots' start
        shots_in = under("qfactory.ubqc_shots", "qfactory.succ_ubqc")
        delegations = parent[shots_in]
        prep_s = float((start[shots_in] - start[delegations]).sum())
        delegation_s = float(dur[delegations].sum())

        def ratio(a, b, scale=1.0):
            return a / b * scale if b else 0.0

        def total(d, layer, names):
            return sum(d.get(f"{layer}.{x}", 0) for x in names)

        state_labels = [lab for lab in labels if lab.startswith("state.")]
        server_labels = [lab for lab in labels if lab.startswith(
            ("protocols.prepare_gadget", "protocols.respond_",
             "protocols.eval_robust", "protocols.depermute_split",
             "protocols.extend_gadget", "protocols.prepend_pad",
             "protocols.derive_index_register", "protocols.phase_and_measure",
             "adversary.respond_"))]
        prf_calls, prf_s = count["oracle._prf"], incl["oracle._prf"]
        map_s = total(own, "state", MAP_OPS)
        shots = count["qfactory.ubqc_run"]
        fl_trials = count["adversary.free_lunch_attack"]

        m = {
            "oracle.prf_calls": prf_calls,
            "oracle.prf_s": prf_s,
            "oracle.prf_us": ratio(prf_s, prf_calls, 1e6),
            "oracle.classical_calls": count["oracle.query_classical"],
            "oracle.superposed_calls": count["oracle.query_superposed"],
            "oracle.tag_calls": count["oracle.tag"],
            "oracle.instances": count["oracle.__init__"],
            "oracle.queries.client": self.queries.get("client", 0),
            "oracle.queries.server": self.queries.get("server", 0),
            "oracle.queries.attacker": self.queries.get("attacker", 0),
            "state.calls": sum(count[lab] for lab in state_labels),
            "state.map_s": map_s,
            "state.map_branches": self.map_branches,
            "state.map_ns_per_branch": ratio(map_s, self.map_branches, 1e9),
            "state.plumbing_s": total(own, "state", PLUMBING_OPS),
            "state.measure_s": total(own, "state", MEASURE_OPS),
            "state.factor_s": total(own, "state", FACTOR_OPS),
            "state.peak_branches": self.peak_branches,
            "tables.build_s": outermost([f"tables.{f}" for f in TABLE_BUILD]),
            "tables.rows_built": count["tables.enc"],
            "tables.eval_coherent_s": incl["tables.lt_eval_coherent"],
            "tables.eval_coherent_calls": count["tables.lt_eval_coherent"],
            "tables.eval_rows": self.eval_rows,
            "tables.decrypt_s": outermost(["tables.lt_decrypt",
                                           "tables.dec_row"]),
            "tables.rows_tried": count["tables.dec_row"],
            "tables.decrypt_hit_ratio": ratio(self.decrypt_hits,
                                              self.decrypt_calls),
            "tables.serialize_s": incl["tables.serialize_table"],
            "tables.serialized_bytes": self.serialized_bytes,
            "protocols.client_self_s": total(own, "protocols", CLIENT_DRIVERS),
            "protocols.server_self_s": sum(own[lab] for lab in server_labels),
            "protocols.messages": self.messages,
            "protocols.transcript_bytes": self.transcript_bytes,
            "protocols.failed_transcripts": self.failed_transcripts,
        }
        for stage, fn in STAGES.items():
            m[f"gadget_prep.{stage}.s"] = incl[f"gadget_prep.{fn}"]
            m[f"gadget_prep.{stage}.self_s"] = own[f"gadget_prep.{fn}"]
            m[f"gadget_prep.{stage}.server_queries"] = \
                self.stage_server_queries[stage]
        m.update({
            "qfactory.qfac8_s": incl["qfactory.qfac8"],
            "qfactory.qfac8_calls": count["qfactory.qfac8"],
            "qfactory.shots": shots,
            "qfactory.ubqc_run_s": incl["qfactory.ubqc_run"],
            "qfactory.shot_us": ratio(incl["qfactory.ubqc_shots"], shots, 1e6),
            "qfactory.reblind_s": incl["qfactory.reblind"],
            "qfactory.prep_share": ratio(prep_s, delegation_s),
            "adversary.free_lunch_s": incl["adversary.free_lunch_attack"],
            "adversary.free_lunch_trials": fl_trials,
            "adversary.attempts_per_trial": ratio(
                len(under("oracle.__init__", "adversary.free_lunch_attack")),
                fl_trials),
            "adversary.cheat_s": incl["adversary.run_with_adversary"],
            "adversary.cheat_trials": count["adversary.run_with_adversary"],
        })
        return m

    def write(self, path) -> None:
        """Save the spans as compressed numpy arrays (one entry per span)."""
        import numpy as np

        np.savez_compressed(
            path, labels=np.array(self.labels),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            op=np.frombuffer(self.op, dtype=np.int32),
            start=np.frombuffer(self.start), end=np.frombuffer(self.end))
