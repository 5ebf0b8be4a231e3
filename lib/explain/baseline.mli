(** Bench regression gate: diff a fresh [msched-bench-pipeline-7] document
    (what [bench/main.exe] just produced) against a committed baseline
    ([BENCH_pipeline.json]) with per-metric-class tolerances.

    Metrics are flattened to dotted paths and classified:

    - {b Time} — per-design span durations ([designs.*.span.<name>.max_dur_us]).
      Wall-clock noise on shared CI runners is large, so a time metric only
      regresses when it is {e both} more than 5× the baseline {e and} more
      than 50 ms absolute over it.
    - {b Count} — compiler work counters ([designs.*.counter.*],
      [driver.counter.*]) and the placement wirelength gauge.  Regress when
      more than 1.5× the baseline and more than 64 absolute over it (the
      annealer is seeded, but small count drift must not block a PR).
    - {b Effort} — routing effort against design size
      ([scale.*.expansions_per_search], [scale.expansions_growth]).
      Deterministic for the committed seeds; regresses above 1.1× the
      baseline, so a search that floods the array again (and with it
      superlinear growth in the expansions per search) fails.
    - {b Length} — schedule frame lengths ([…schedule.length],
      [workloads.*.*.schedule_length]).  Deterministic: {e any} increase
      regresses.
    - {b Speed} — estimated emulation speeds.  Deterministic: any decrease
      regresses.
    - {b Bool} — verifier cleanliness ([workloads.*.*.verifier_clean]) and
      the parallel-compile equality classes ([par.schedule_identical_1v2],
      [par.schedule_identical_1v4], [par.placement_identical]).  [true] in
      the baseline must stay [true].

    A metric present in the baseline but missing from the fresh run is a
    regression (coverage must not silently shrink); a metric only present
    in the fresh run is reported as new but never fails the gate.  The
    [batch] section is wall-clock-dominated and excluded entirely. *)

type kind = Time | Count | Effort | Length | Speed | Bool

val kind_name : kind -> string

type metric = { m_path : string; m_kind : kind; m_value : float }

val extract : string -> (metric list, Msched_diag.Diag.t) result
(** Flatten a [msched-bench-pipeline-7] JSON document into classified
    metrics.  [Error] ([E_PARSE]) when the text is not valid JSON or not
    the expected schema. *)

type verdict = {
  v_path : string;
  v_kind : kind;
  v_base : float;
  v_fresh : float option;  (** [None]: metric vanished from the fresh run. *)
  v_regressed : bool;
  v_note : string;
}

type diff = {
  d_compared : int;  (** Metrics present in both documents. *)
  d_new : int;  (** Metrics only in the fresh run (never failing). *)
  d_verdicts : verdict list;  (** Regressions only, sorted by path. *)
}

val compare_runs : baseline:string -> fresh:string -> (diff, Msched_diag.Diag.t) result

val ok : diff -> bool

val to_json : diff -> string
(** Stable [msched-bench-diff-1] document with the tolerance table and the
    regression list — the CI artifact. *)

val pp : Format.formatter -> diff -> unit
