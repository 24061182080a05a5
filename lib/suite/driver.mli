(** Suite-scale superoptimization: run many benchmarks concurrently on a
    bounded pool of domains.

    Each benchmark is synthesized by a single-domain search (so [jobs]
    bounds the process's total concurrency) that honours the configured
    per-benchmark timeout internally — a timing-out benchmark only
    occupies its own worker and cannot stall the rest of the run.
    Results come back in benchmark order and, for a deterministic
    estimator such as [`Flops], are byte-identical for any [jobs].

    With [trace] each benchmark records into its own telemetry sink, and
    {!report} renders the whole run as a schema-stable JSON document
    ([stenso.suite-report/1]) — the format the repository's
    [BENCH_*.json] performance trajectory is archived in. *)

type bench_result = {
  bench : Benchmarks.t;
  outcome : Stenso.Superopt.outcome;
  elapsed : float;  (** wall-clock seconds for this benchmark *)
  tel : Stenso.Telemetry.t;
      (** this benchmark's telemetry sink; {!Stenso.Telemetry.null}
          unless the run was traced *)
}

type t = {
  results : bench_result list;  (** in input benchmark order *)
  elapsed : float;  (** wall clock for the whole run *)
}

val run :
  ?config:Stenso.Config.t ->
  ?model:Cost.Model.t ->
  ?store:Stenso.Store.t ->
  ?jobs:int ->
  ?trace:bool ->
  ?on_result:(bench_result -> unit) ->
  Benchmarks.t list ->
  t
(** [run benches] superoptimizes every benchmark at its synthesis
    shapes.  [jobs] (default 1) sizes the benchmark pool; the search
    config's own [jobs] field is overridden to 1 inside the pool.
    [model] defaults to [Config.model config] built once and shared —
    the measured estimator's profiling table is domain-safe.  [store]
    serves benchmarks cache-first from the persistent synthesis store
    and records fresh outcomes into it ({!Stenso.Superopt.optimize}).
    Benchmarks sharing an input environment share one enumerated stub
    library per run regardless.  [trace] (default false) gives each
    benchmark a fresh recording sink (search counters, phase spans,
    bound trajectory) on its result.  [on_result] is invoked as each
    benchmark finishes (serialized by a mutex; ordering follows
    completion, not input order). *)

val schema_version : string
(** ["stenso.suite-report/1"]. *)

val report : ?config:Stenso.Config.t -> t -> Stenso.Telemetry.Json.t
(** Render a run as the suite-report document: run metadata (schema,
    estimator, jobs, timeout, wall clock) and one record per benchmark —
    name, source, class, costs before/after, speedup, synthesis time,
    both programs, the search statistics, and the branch-and-bound bound
    trajectory ([(seconds, bound)] pairs; empty when the run was not
    traced).  [config] supplies the metadata and should be the one the
    run used. *)

val validate_report : Stenso.Telemetry.Json.t -> (unit, string) result
(** Check that a JSON document structurally conforms to
    [stenso.suite-report/1]: every schema field present with the right
    kind.  Used by [stenso report] and the CI harness to keep archived
    [BENCH_*.json] files comparable over time. *)

val exec_bench_schema_version : string
(** ["stenso.exec-bench/1"], the interp-vs-VM microbenchmark archive
    written by [bench vm --report]. *)

type exec_row = {
  exec_name : string;
  interp_seconds : float;
  vm_seconds : float;
  exec_stats : Stenso.Exec.stats;  (** the compiled plan's statistics *)
  expects_fused_reduction : bool;
      (** reduction-rooted with an elementwise producer: its plan must
          fuse at least one op *)
}

val exec_bench_report :
  options:Stenso.Exec.Options.t ->
  geomean:float ->
  exec_row list ->
  Stenso.Telemetry.Json.t
(** Render interp-vs-VM measurements as a [stenso.exec-bench/1]
    document. *)

val validate_exec_bench :
  ?min_speedup:float -> Stenso.Telemetry.Json.t -> (unit, string) result
(** Check that a JSON document conforms to [stenso.exec-bench/1].  With
    [min_speedup] this is also a performance gate: any benchmark whose
    VM speedup over the interpreter falls below the floor fails, as does
    any [expects_fused_reduction] benchmark with [ops_fused] = 0 (a
    planner fusion regression).  Used by [stenso report --min-speedup]
    and the CI exec-bench smoke check on [BENCH_exec_vm.json]. *)

val tiers_schema_version : string
(** ["stenso.tiers/1"], the tiered-serving comparison archive written
    by [stenso suite --tiers-report]. *)

val tiers_report :
  ?config:Stenso.Config.t -> baseline:t -> cold:t -> warm:t -> unit ->
  Stenso.Telemetry.Json.t
(** Render a tiered-serving comparison over three runs of the {e same}
    benchmarks: [baseline] (full search, no store), [cold] (tiered
    against a pre-mined rule database with an empty outcome store) and
    [warm] (the same requests again, now also hitting the outcome
    store).  Reports per-pass tier counts, the fraction of requests
    answered without entering the search ([tier12_fraction]),
    end-to-end speedups over the baseline, and — honesty check — the
    number of benchmarks whose cold-pass final cost differs from the
    baseline's ([n_cost_mismatches]). *)

val validate_tiers_report : Stenso.Telemetry.Json.t -> (unit, string) result
(** Structural conformance check for [stenso.tiers/1], used by
    [stenso report] and the CI harness on [BENCH_tiers.json]. *)

val mlsuite_schema_version : string
(** ["stenso.mlsuite/1"], the ML-kernel workload archive written by
    [bench mlsuite --report] ([BENCH_mlsuite.json]): one exec point
    (interp-vs-VM per kernel, [stenso.exec-bench/1]) and one tiers
    point ([stenso.tiers/1]) over the {!Benchmarks.ml} tier. *)

val mlsuite_report :
  exec:Stenso.Telemetry.Json.t ->
  tiers:Stenso.Telemetry.Json.t ->
  unit ->
  Stenso.Telemetry.Json.t
(** Compose the two archived points into one [stenso.mlsuite/1]
    document.  The components must already conform to their own
    schemas; {!validate_mlsuite} checks both. *)

val validate_mlsuite :
  ?min_speedup:float -> Stenso.Telemetry.Json.t -> (unit, string) result
(** Conformance check for [stenso.mlsuite/1], delegating to
    {!validate_exec_bench} (with [min_speedup] as the per-kernel VM
    speedup floor) and {!validate_tiers_report} on the embedded
    documents.  Used by [stenso report] and the CI ML-suite smoke on
    [BENCH_mlsuite.json]. *)

val serve_load_schema_version : string
(** ["stenso.serve-load/1"], the serving-throughput archive written by
    [stenso loadgen --report] ([BENCH_serve_load.json]). *)

val classify_serve_response : string -> int
(** Map one [stenso.serve/1] response line to the load generator's
    integer response class: successful responses encode
    [tier + 10·coalesced + 20·refined] (tiers 1–3), a shed response is
    its own class, and anything unparseable — or [ok:false] for any
    other reason — counts as a protocol error.  Pass as the [classify]
    callback of {!Stenso.Net.Loadgen.run}. *)

val serve_load_report :
  ?config:Stenso.Config.t ->
  endpoints:string list ->
  concurrency:int ->
  duration:float ->
  benchmarks:string list ->
  Stenso.Net.Loadgen.stats ->
  Stenso.Telemetry.Json.t
(** Render one load-generation run as the serve-load document: run
    parameters (endpoints, concurrency, requested duration, programs
    replayed), totals (requests, ok / busy / protocol-error / transport
    splits, coalesced and refined counts, ok-throughput in requests per
    second) and nearest-rank latency percentiles — overall and split by
    serving tier. *)

val validate_serve_load : Stenso.Telemetry.Json.t -> (unit, string) result
(** Conformance check for [stenso.serve-load/1]: structure, count
    consistency ([n_requests] = ok + busy + protocol errors; per-tier
    sample counts summing to [n_ok]) and percentile monotonicity
    (p50 ≤ p95 ≤ p99, overall and per tier).  Used by [stenso report]
    and the CI loadgen smoke on [BENCH_serve_load.json]. *)

val lift_schema_version : string
(** ["stenso.lift/1"] — the lifting report written by
    [bench lift --report] / [stenso lift --report]
    ([BENCH_lift.json]). *)

type lift_entry = {
  lift_name : string;  (** kernel name ({!Lifted} / CLI file stem) *)
  lifted : bool;
  lifted_program : string;  (** certified DSL program; [""] on failure *)
  optimized_program : string;  (** after {!Stenso.Superopt.optimize} *)
  lift_improved : bool;  (** superoptimizer found a cheaper form *)
  lift_stats : Stenso.Lift.stats;
  lift_speedup : float option;
      (** large-shape scalar-loop-interpreter time over VM time for the
          lifted-and-optimized program; absent when not measured *)
}

val lift_report :
  ?config:Stenso.Config.t ->
  elapsed:float ->
  lift_entry list ->
  Stenso.Telemetry.Json.t
(** Render lifting results as the [stenso.lift/1] document: run
    metadata, [n_kernels] / [n_lifted] / [success_rate], and one
    record per kernel (sketch, pruning and certification counters,
    lift and verify times, optional end-to-end speedup). *)

val validate_lift_report :
  ?min_success:float ->
  Stenso.Telemetry.Json.t ->
  (unit, string) result
(** Conformance check for [stenso.lift/1]: structure, count
    consistency ([n_lifted] and [success_rate] agreeing with the
    kernels array, lifted entries carrying a certified program and
    failed ones none), and optionally a [success_rate] floor.  Used by
    [stenso report] and the CI lifting smoke on [BENCH_lift.json]. *)

val report_schemas : string list
(** The schema ids {!check_report} knows, one per report format above. *)

val schemas_accepting : Schema.gate -> string list

val check_report :
  ?min_speedup:float ->
  ?min_success:float ->
  Stenso.Telemetry.Json.t ->
  (string, string) result
(** [stenso report]: look the document's [schema] up in the table of
    report formats, refuse a gate that format does not accept, validate,
    and return the summary (["valid <schema> (...)"]).  Errors name the
    known schemas, or the formats that accept the refused gate. *)
