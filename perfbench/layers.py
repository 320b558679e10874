"""Per-layer metrics from the spans of a traced run.

Each traced process contributes one list of spans (see tracer.py).  Times
are sums of span durations; `oscillator.hermite_s` is self time, the span's
duration minus the time its child spans cover.  Sweep threads start new
root spans, so busy times inside a `--sweep` may add up to more than the
wall time, which is what `cli.sweep_overlap` measures.
"""

from collections import defaultdict

# bytes of the dim x times intermediates one weak_value_series call writes:
# two float64 phase arguments and seven complex128 arrays (two exponentials,
# ket, bra, bra*ket, A@ket, bra*(A@ket))
SERIES_BYTES_PER_ELEMENT = 2 * 8 + 7 * 16


def _duration(span):
    return span["end"] - span["start"]


def _ratio(num, den):
    return num / den if den else 0.0


def from_spans(groups):
    """Counters and times per layer, keyed by per-layer metric name."""
    m = defaultdict(float)
    sweep_busy = sweep_wall = 0.0
    useful_panels = adaptive_panels = 0
    steps_used = steps_total = 0
    norm_drift = 0.0
    for spans in groups:
        by_id = {s["id"]: s for s in spans}
        children = defaultdict(list)
        for s in spans:
            if s["parent"] is not None:
                children[s["parent"]].append(s)

        def parent_name(s):
            p = by_id.get(s["parent"])
            return p["name"] if p else None

        mains = [s for s in spans if s["name"] == "cli.main"]
        m["cli.run_s"] += sum(map(_duration, mains))
        if any(s.get("sweep") for s in mains):
            sweep_wall += sum(map(_duration, mains))
            sweep_busy += sum(_duration(s) for s in spans if s["name"] == "cli.run_single")

        for s in spans:
            name, d = s["name"], _duration(s)
            if name == "oscillator.hermite_functions":
                m["oscillator.hermite_s"] += d - sum(map(_duration, children[s["id"]]))
                m["oscillator.hermite_values"] += s.get("values", 0)
            elif name == "quadrature.adaptive_integrate":
                m["quadrature.integrate_calls"] += 1
                m["quadrature.integrate_s"] += d
                panels = [c.get("panels", 0) for c in sorted(children[s["id"]],
                                                              key=lambda c: c["start"])
                          if c["name"] == "quadrature.panel_nodes"]
                adaptive_panels += sum(panels)
                if panels and not s["error"]:
                    useful_panels += panels[-1]
            elif name == "quadrature.panel_nodes":
                if parent_name(s) == "projectors.projector_matrix":
                    m["projectors.panels"] += s.get("panels", 0)
            elif name == "projectors.projector_matrix":
                m["projectors.builds"] += 1
                m["projectors.build_s"] += d
            elif name == "weak.pointer_trace":
                m["weak.trace_s"] += d
            elif name == "weak.weak_value_series":
                m["weak.series_s"] += d
                m["weak.series_points"] += s.get("points", 0)
                m["weak.series_bytes_computed"] += (SERIES_BYTES_PER_ELEMENT
                                                    * s.get("points", 0) * s.get("dim", 0))
            elif name == "simulation.bipartite_protective_sim":
                m["simulation.bipartite_s"] += d
                if not s["error"]:
                    # the ladder ran steps, 2*steps, ..., steps_used
                    steps_used += s["steps_used"]
                    steps_total += 2 * s["steps_used"] - s["steps"]
                    norm_drift = max(norm_drift, abs(1.0 - s["norm"]))
            elif name == "simulation.zeno_protect_sim":
                m["simulation.zeno_s"] += d
                m["simulation.zeno_protections"] += s.get("protections", 0)
            elif name == "twostate.two_state_density":
                m["twostate.density_s"] += d
                m["twostate.density_calls"] += 1
            elif name.startswith("ergodicity."):
                if not (parent_name(s) or "").startswith("ergodicity."):
                    m["ergodicity.s"] += d
                m["ergodicity.samples"] += s.get("samples", 0)
            elif name == "tables.ResultTable.write_csv":
                m["tables.write_s"] += d
            elif name == "tables.write_atomic":
                if parent_name(s) == "tables.ResultTable.write_csv":
                    m["tables.csv_bytes"] += s.get("bytes", 0)
            elif name == "svgplot.emit_plot":
                m["svgplot.emit_s"] += d
                m["svgplot.svg_bytes"] += s.get("bytes", 0)

    m["cli.sweep_overlap"] = _ratio(sweep_busy, sweep_wall)
    m["quadrature.panels"] = adaptive_panels
    m["quadrature.useful_panel_ratio"] = _ratio(useful_panels, adaptive_panels)
    m["simulation.steps_total"] = steps_total
    m["simulation.steps_used"] = steps_used
    m["simulation.useful_step_ratio"] = _ratio(steps_used, steps_total)
    m["simulation.step_us"] = 1e6 * _ratio(m["simulation.bipartite_s"], steps_total)
    m["simulation.norm_drift"] = norm_drift
    return dict(m)
