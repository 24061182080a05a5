type bench_result = {
  bench : Benchmarks.t;
  outcome : Stenso.Superopt.outcome;
  elapsed : float;
  tel : Stenso.Telemetry.t;
}

type t = { results : bench_result list; elapsed : float }

let run ?(config = Stenso.Config.default) ?model ?store ?(jobs = 1)
    ?(trace = false) ?on_result benches =
  let model =
    match model with Some m -> m | None -> Stenso.Config.model config
  in
  (* Benchmarks are the unit of parallelism here: each search runs
     single-domain so [jobs] bounds total concurrency, and each honours
     its own timeout, isolating slow benchmarks to their worker. *)
  let run_config = Stenso.Config.with_jobs 1 config in
  (* Benchmarks sharing an input environment (and stub grammar) share
     one enumerated library instead of re-enumerating per benchmark. *)
  let stub_cache = Stenso.Stub.Cache.create () in
  let emit =
    match on_result with
    | None -> fun _ -> ()
    | Some f ->
        let lock = Mutex.create () in
        fun r -> Mutex.protect lock (fun () -> f r)
  in
  let started = Unix.gettimeofday () in
  let one (b : Benchmarks.t) =
    let t0 = Unix.gettimeofday () in
    let tel =
      if trace then Stenso.Telemetry.create () else Stenso.Telemetry.null
    in
    let outcome =
      Stenso.Superopt.optimize ~tel ~config:run_config ?store ~stub_cache
        ~model ~env:b.env b.program
    in
    let r =
      { bench = b; outcome; elapsed = Unix.gettimeofday () -. t0; tel }
    in
    emit r;
    r
  in
  let results = Stenso.Par.map ~jobs one benches in
  { results; elapsed = Unix.gettimeofday () -. started }

(* ------------------------------------------------------------------ *)
(* Reports                                                             *)
(* ------------------------------------------------------------------ *)

(* Each report format is one {!Schema.obj} whose field list both renders
   and validates the document, so fresh reports and the [BENCH_*.json]
   archives cannot drift apart. *)

open Schema

let ratio a b = if b = 0 then 0. else float_of_int a /. float_of_int b

let estimator get =
  str "estimator" (fun x ->
      Stenso.Config.estimator_name (Stenso.Config.estimator (get x)))

let schema_version = "stenso.suite-report/1"

let search_obj : Stenso.Search.stats obj =
  Stenso.Search.(
    obj
      [
        int "nodes" (fun s -> s.nodes);
        int "decomps" (fun s -> s.decomps);
        int "pruned_simp" (fun s -> s.pruned_simp);
        int "pruned_bnb" (fun s -> s.pruned_bnb);
        int "memo_hits" (fun s -> s.memo_hits);
        int "memo_misses" (fun s -> s.memo_misses);
        float "elapsed" (fun s -> s.elapsed);
        bool "timed_out" (fun s -> s.timed_out);
        int "library_size" (fun s -> s.library_size);
      ])

let bench_obj : bench_result obj =
  let out (r : bench_result) = r.outcome in
  let ast a = Format.asprintf "%a" Dsl.Ast.pp a in
  obj
    [
      str "name" (fun r -> r.bench.Benchmarks.name);
      str "source" (fun r ->
          match r.bench.source with
          | `Github -> "github"
          | `Synthetic -> "synthetic");
      str "klass" (fun r -> Benchmarks.klass_name r.bench.klass);
      (* optional: older archives predate tiered serving *)
      int ~optional:true "tier" (fun r -> (out r).tier);
      bool "improved" (fun r -> (out r).improved);
      bool "verified" (fun r -> (out r).verified);
      float "cost_before" (fun r -> (out r).original_cost);
      float "cost_after" (fun r -> (out r).optimized_cost);
      float "speedup" (fun r ->
          let o = out r in
          if o.optimized_cost > 0. then o.original_cost /. o.optimized_cost
          else 1.);
      float "synthesis_time" (fun (r : bench_result) -> r.elapsed);
      str "original" (fun r -> ast (out r).original);
      str "optimized" (fun r -> ast (out r).optimized);
      sub "search" search_obj (fun r -> (out r).search.stats);
      field "bound_trajectory" (List (Pair (Float, Float))) (fun r ->
          Json.List
            (List.map
               (fun (ts, v) -> Json.List [ Json.Float ts; Json.Float v ])
               (Stenso.Telemetry.series r.tel "search.bound")));
    ]

let suite_obj : (Stenso.Config.t * t) obj =
  obj ~checks:[ length_matches ~count:"n_benchmarks" ~items:"benchmarks" ]
    ((* optional: older archives predate the field *)
     header ~version_optional:true schema_version
    @ [
        estimator fst;
        int "jobs" (fun (c, _) -> Stenso.Config.jobs c);
        float "timeout" (fun (c, _) -> Stenso.Config.timeout c);
        float "elapsed" (fun (_, t) -> t.elapsed);
        int "n_benchmarks" (fun (_, t) -> List.length t.results);
        int "n_improved" (fun (_, t) ->
            List.length
              (List.filter (fun r -> r.outcome.Stenso.Superopt.improved)
                 t.results));
        subs "benchmarks" bench_obj (fun (_, t) -> t.results);
      ])

let report ?(config = Stenso.Config.default) t = emit suite_obj (config, t)
let validate_report = validate (Obj suite_obj)

(* ------------------------------------------------------------------ *)
(* Exec-bench report                                                   *)
(* ------------------------------------------------------------------ *)

let exec_bench_schema_version = "stenso.exec-bench/1"

type exec_row = {
  exec_name : string;
  interp_seconds : float;
  vm_seconds : float;
  exec_stats : Stenso.Exec.stats;
  expects_fused_reduction : bool;
}

let exec_row_obj : exec_row obj =
  let st r : Stenso.Exec.stats = r.exec_stats in
  obj
    ~checks:
      [
        (* a planner fusion regression must not hide behind speedups *)
        check "expects_fused_reduction => ops_fused > 0" (fun j ->
            if
              get_bool "expects_fused_reduction" j && get_int "ops_fused" j = 0
            then Some (get_str "name" j)
            else None);
        floor Min_speedup ~field:"speedup";
      ]
    [
      str "name" (fun r -> r.exec_name);
      float "interp_seconds" (fun r -> r.interp_seconds);
      float "vm_seconds" (fun r -> r.vm_seconds);
      float "speedup" (fun r -> r.interp_seconds /. r.vm_seconds);
      int "steps" (fun r -> (st r).steps);
      int "ops_fused" (fun r -> (st r).ops_fused);
      int "parallel_strips" (fun r -> (st r).parallel_strips);
      int "buffers_reused" (fun r -> (st r).buffers_reused);
      int "arena_bytes" (fun r -> (st r).arena_bytes);
      bool "expects_fused_reduction" (fun r -> r.expects_fused_reduction);
    ]

let exec_obj : (string * float * exec_row list) obj =
  obj ~checks:[ length_matches ~count:"n_benchmarks" ~items:"results" ]
    (header exec_bench_schema_version
    @ [
        str "options" (fun (o, _, _) -> o);
        int "n_benchmarks" (fun (_, _, rows) -> List.length rows);
        float "geomean_speedup" (fun (_, g, _) -> g);
        subs "results" exec_row_obj (fun (_, _, rows) -> rows);
      ])

let exec_bench_report ~options ~geomean rows =
  emit exec_obj (Stenso.Exec.Options.fingerprint options, geomean, rows)

let validate_exec_bench ?min_speedup =
  validate ~gates:(gates ?min_speedup ()) (Obj exec_obj)

(* ------------------------------------------------------------------ *)
(* Tiered-serving report                                               *)
(* ------------------------------------------------------------------ *)

let tiers_schema_version = "stenso.tiers/1"
let served (r : bench_result) = r.outcome.Stenso.Superopt.tier

let tier_count tier t =
  List.length
    (List.filter
       (fun r ->
         if tier = 3 then served r < 1 || served r > 2 else served r = tier)
       t.results)

let pass_obj : t obj =
  obj
    [
      int "tier1" (tier_count 1);
      int "tier2" (tier_count 2);
      int "tier3" (tier_count 3);
      float "tier12_fraction" (fun t ->
          ratio (tier_count 1 t + tier_count 2 t) (List.length t.results));
      float "elapsed" (fun t -> t.elapsed);
    ]

(* One row per benchmark: its baseline, cold and warm results. *)
let tiers_row_obj : (bench_result * bench_result * bench_result) obj =
  let cold (_, (c : bench_result), _) = c.outcome in
  let elapsed (r : bench_result) = r.elapsed in
  obj
    [
      str "name" (fun (_, c, _) -> c.bench.Benchmarks.name);
      int "tier_cold" (fun (_, c, _) -> served c);
      int "tier_warm" (fun (_, _, w) -> served w);
      bool "improved" (fun r -> (cold r).improved);
      bool "verified" (fun r -> (cold r).verified);
      float "cost_before" (fun r -> (cold r).original_cost);
      float "cost_after" (fun r -> (cold r).optimized_cost);
      float "baseline_cost_after" (fun (b, _, _) -> b.outcome.optimized_cost);
      float "latency_baseline" (fun (b, _, _) -> elapsed b);
      float "latency_cold" (fun (_, c, _) -> elapsed c);
      float "latency_warm" (fun (_, _, w) -> elapsed w);
    ]

(* [baseline] (full search, no store), [cold] (tiered, empty outcome
   store) and [warm] (the same requests again) over the same
   benchmarks in the same order. *)
type tiers_run = {
  tiers_config : Stenso.Config.t;
  baseline : t;
  cold : t;
  warm : t;
}

let tiers_obj : tiers_run obj =
  let speedup s tiered =
    if tiered.elapsed > 0. then s.baseline.elapsed /. tiered.elapsed else 1.
  in
  let mismatches s =
    List.fold_left2
      (fun n (b : bench_result) (c : bench_result) ->
        let bc = b.outcome.optimized_cost in
        let cc = c.outcome.optimized_cost in
        if Float.abs (bc -. cc) > 1e-9 *. (1. +. Float.abs bc) then n + 1
        else n)
      0 s.baseline.results s.cold.results
  in
  obj ~checks:[ length_matches ~count:"n_benchmarks" ~items:"benchmarks" ]
    (header tiers_schema_version
    @ [
        estimator (fun s -> s.tiers_config);
        int "rules_depth" (fun s ->
            Option.value ~default:0 (Stenso.Config.rules_depth s.tiers_config));
        int "n_benchmarks" (fun s -> List.length s.cold.results);
        float "baseline_elapsed" (fun s -> s.baseline.elapsed);
        sub "cold" pass_obj (fun s -> s.cold);
        sub "warm" pass_obj (fun s -> s.warm);
        float "cold_speedup" (fun s -> speedup s s.cold);
        float "warm_speedup" (fun s -> speedup s s.warm);
        int "n_cost_mismatches" mismatches;
        subs "benchmarks" tiers_row_obj (fun s ->
            List.map2
              (fun (b, c) w -> (b, c, w))
              (List.combine s.baseline.results s.cold.results)
              s.warm.results);
      ])

let tiers_report ?(config = Stenso.Config.default) ~baseline ~cold ~warm () =
  emit tiers_obj { tiers_config = config; baseline; cold; warm }

let validate_tiers_report = validate (Obj tiers_obj)

(* ------------------------------------------------------------------ *)
(* ML-suite report                                                     *)
(* ------------------------------------------------------------------ *)

let mlsuite_schema_version = "stenso.mlsuite/1"

(* A composition: each half is held to its own schema, and the exec
   half is where [--min-speedup] gates. *)
let mlsuite_obj : (Json.t * Json.t) obj =
  obj
    (header mlsuite_schema_version
    @ [ field "exec" (Obj exec_obj) fst; field "tiers" (Obj tiers_obj) snd ])

let mlsuite_report ~exec ~tiers () = emit mlsuite_obj (exec, tiers)

let validate_mlsuite ?min_speedup =
  validate ~gates:(gates ?min_speedup ()) (Obj mlsuite_obj)

(* ------------------------------------------------------------------ *)
(* Serve-load report                                                   *)
(* ------------------------------------------------------------------ *)

let serve_load_schema_version = "stenso.serve-load/1"

(* The load generator is protocol-agnostic; this is where its integer
   response classes are defined for the serve protocol.  Successful
   responses encode (tier, coalesced, refined) in one small integer so
   the stats machinery needs no protocol knowledge; the two failure
   classes sit above every success class. *)
let class_busy = 100
let class_protocol_error = 101

let classify_serve_response line =
  match Json.of_string (String.trim line) with
  | Error _ -> class_protocol_error
  | Ok doc -> (
      let bool name =
        Option.value ~default:false
          (Option.bind (Json.member name doc) Json.to_bool_opt)
      in
      match bool "ok" with
      | false -> (
          match
            Option.bind (Json.member "error" doc) Json.to_string_opt
          with
          | Some "busy" -> class_busy
          | _ -> class_protocol_error)
      | true ->
          let tier =
            Option.value ~default:0
              (Option.bind (Json.member "tier" doc) Json.to_int_opt)
          in
          if tier < 1 || tier > 3 then class_protocol_error
          else
            tier
            + (if bool "coalesced" then 10 else 0)
            + if bool "refined" then 20 else 0)

let class_is_ok c = c < class_busy
let class_tier c = c mod 10
let class_coalesced c = class_is_ok c && c / 10 land 1 = 1
let class_refined c = class_is_ok c && c >= 20

(* Nearest-rank percentiles over one sorted latency population. *)
let latency_obj : float array obj =
  let pct p lats = Stenso.Net.Loadgen.percentile lats p in
  obj
    ~checks:
      [
        check "n >= 0" (fun j ->
            if get_int "n" j >= 0 then None else Some "negative count");
        monotone [ "p50"; "p95"; "p99" ];
      ]
    [
      int "n" Array.length;
      float "mean" (fun lats ->
          let n = Array.length lats in
          if n = 0 then 0.
          else Array.fold_left ( +. ) 0. lats /. float_of_int n);
      float "p50" (pct 50.);
      float "p95" (pct 95.);
      float "p99" (pct 99.);
    ]

let tier_latency_obj : (int * float array) obj =
  obj ~checks:latency_obj.checks
    (int "tier" fst
    :: List.map
         (fun f -> { f with get = (fun (_, lats) -> f.get lats) })
         latency_obj.fields)

type serve_load_run = {
  load_config : Stenso.Config.t;
  endpoints : string list;
  concurrency : int;
  duration : float;
  benchmarks : string list;
  stats : Stenso.Net.Loadgen.stats;
}

let serve_load_obj : serve_load_run obj =
  let count pred s =
    Array.fold_left
      (fun acc (_, c) -> if pred c then acc + 1 else acc)
      0 s.stats.samples
  in
  let latencies pred s =
    let lats =
      Array.of_list
        (List.filter_map
           (fun (l, c) -> if pred c then Some l else None)
           (Array.to_list s.stats.samples))
    in
    Array.sort compare lats;
    lats
  in
  let n_ok = count class_is_ok in
  let at_most_ok name =
    check (name ^ " <= n_ok") (fun j ->
        if get_int name j <= get_int "n_ok" j then None
        else Some (string_of_int (get_int name j)))
  in
  obj
    ~checks:
      [
        check "endpoints non-empty" (fun j ->
            if get_list "endpoints" j = [] then Some "none" else None);
        agrees "n_requests = n_ok + n_busy + n_protocol_errors" "n_requests"
          (fun j ->
            get_int "n_ok" j + get_int "n_busy" j
            + get_int "n_protocol_errors" j);
        at_most_ok "n_coalesced";
        at_most_ok "n_refined";
        agrees "n_ok = sum of tiers[].n" "n_ok" (fun j ->
            List.fold_left
              (fun n t -> n + get_int "n" t)
              0 (get_list "tiers" j));
      ]
    (header serve_load_schema_version
    @ [
        estimator (fun s -> s.load_config);
        strs "endpoints" (fun s -> s.endpoints);
        int "concurrency" (fun s -> s.concurrency);
        float "duration" (fun s -> s.duration);
        float "elapsed" (fun s -> s.stats.elapsed);
        strs "benchmarks" (fun s -> s.benchmarks);
        int "n_requests" (fun s -> Array.length s.stats.samples);
        int "n_ok" n_ok;
        float "throughput_rps" (fun s ->
            if s.stats.elapsed > 0. then
              float_of_int (n_ok s) /. s.stats.elapsed
            else 0.);
        int "n_transport_errors" (fun s -> s.stats.n_transport_errors);
        int "n_protocol_errors" (count (( = ) class_protocol_error));
        int "n_busy" (count (( = ) class_busy));
        int "n_coalesced" (count class_coalesced);
        int "n_refined" (count class_refined);
        sub "latency" latency_obj (latencies class_is_ok);
        subs "tiers" tier_latency_obj (fun s ->
            List.map
              (fun t ->
                (t, latencies (fun c -> class_is_ok c && class_tier c = t) s))
              [ 1; 2; 3 ]);
      ])

let serve_load_report ?(config = Stenso.Config.default) ~endpoints
    ~concurrency ~duration ~benchmarks stats =
  emit serve_load_obj
    {
      load_config = config;
      endpoints;
      concurrency;
      duration;
      benchmarks;
      stats;
    }

let validate_serve_load = validate (Obj serve_load_obj)

(* ------------------------------------------------------------------ *)
(* Lift report                                                         *)
(* ------------------------------------------------------------------ *)

let lift_schema_version = "stenso.lift/1"

type lift_entry = {
  lift_name : string;
  lifted : bool;
  lifted_program : string;
  optimized_program : string;
  lift_improved : bool;
  lift_stats : Stenso.Lift.stats;
  lift_speedup : float option;
}

let lift_entry_obj : lift_entry obj =
  let st e : Stenso.Lift.stats = e.lift_stats in
  obj
    ~checks:
      [
        (* a lifted entry carries its certified program, a failed one
           none *)
        check "lifted => certified program" (fun j ->
            if
              get_bool "lifted" j
              && (get_str "program" j = "" || get_int "certified" j < 1)
            then Some (get_str "name" j)
            else None);
        check "not lifted => no program" (fun j ->
            if (not (get_bool "lifted" j)) && get_str "program" j <> "" then
              Some (get_str "name" j)
            else None);
      ]
    [
      str "name" (fun e -> e.lift_name);
      bool "lifted" (fun e -> e.lifted);
      str "program" (fun e -> e.lifted_program);
      str "optimized" (fun e -> e.optimized_program);
      bool "improved" (fun e -> e.lift_improved);
      int "sketches" (fun e -> (st e).sketches);
      int "pruned_by_value" (fun e -> (st e).pruned_by_value);
      int "certified" (fun e -> (st e).certified);
      int "library" (fun e -> (st e).library_size);
      float "lift_ms" (fun e -> 1000. *. (st e).lift_s);
      float "verify_ms" (fun e -> 1000. *. (st e).verify_s);
      float_opt "speedup" (fun e -> e.lift_speedup);
    ]

let lift_obj : (Stenso.Config.t * float * lift_entry list) obj =
  let n_lifted es = List.length (List.filter (fun e -> e.lifted) es) in
  obj
    ~checks:
      [
        length_matches ~count:"n_kernels" ~items:"kernels";
        agrees "n_lifted = number of lifted kernels" "n_lifted" (fun j ->
            List.length
              (List.filter (get_bool "lifted") (get_list "kernels" j)));
        check "success_rate = n_lifted / n_kernels" (fun j ->
            let expect = ratio (get_int "n_lifted" j) (get_int "n_kernels" j) in
            let r = get_float "success_rate" j in
            if Float.abs (r -. expect) <= 1e-9 then None
            else Some (Printf.sprintf "%g vs %g" r expect));
        floor Min_success ~field:"success_rate";
      ]
    (header lift_schema_version
    @ [
        estimator (fun (c, _, _) -> c);
        float "elapsed" (fun (_, elapsed, _) -> elapsed);
        int "n_kernels" (fun (_, _, es) -> List.length es);
        int "n_lifted" (fun (_, _, es) -> n_lifted es);
        float "success_rate" (fun (_, _, es) ->
            ratio (n_lifted es) (List.length es));
        subs "kernels" lift_entry_obj (fun (_, _, es) -> es);
      ])

let lift_report ?(config = Stenso.Config.default) ~elapsed entries =
  emit lift_obj (config, elapsed, entries)

let validate_lift_report ?min_success =
  validate ~gates:(gates ?min_success ()) (Obj lift_obj)

(* ------------------------------------------------------------------ *)
(* [stenso report]: one table keyed by schema id                       *)
(* ------------------------------------------------------------------ *)

(* The summary's note on a gate the caller set. *)
let note gates gate render =
  Option.fold ~none:"" ~some:render (List.assoc_opt gate gates)

let pass name d =
  let i k = get_int (name ^ "." ^ k) d in
  Printf.sprintf "%s %d/%d/%d (%.0f%% without search)" name (i "tier1")
    (i "tier2") (i "tier3")
    (100. *. get_float (name ^ ".tier12_fraction") d)

(* id, shape, accepted gates, summary *)
let report_table =
  let sp = Printf.sprintf and i = get_int and f = get_float and s = get_str in
  [
    ( schema_version, Obj suite_obj, [],
      fun _ d ->
        sp "%s estimator, %d benchmarks, %d improved" (s "estimator" d)
          (i "n_benchmarks" d) (i "n_improved" d) );
    ( exec_bench_schema_version, Obj exec_obj, [ Min_speedup ],
      fun g d ->
        sp "%d benchmarks, %.2fx geomean, options %s%s" (i "n_benchmarks" d)
          (f "geomean_speedup" d) (s "options" d)
          (note g Min_speedup (sp ", all above %.2fx")) );
    ( tiers_schema_version, Obj tiers_obj, [],
      fun _ d ->
        sp
          "%s estimator, depth %d, %d benchmarks; %s; %s; %.1fx warm \
           speedup, %d cost mismatches"
          (s "estimator" d) (i "rules_depth" d) (i "n_benchmarks" d)
          (pass "cold" d) (pass "warm" d) (f "warm_speedup" d)
          (i "n_cost_mismatches" d) );
    ( mlsuite_schema_version, Obj mlsuite_obj, [ Min_speedup ],
      fun g d ->
        sp
          "%d kernels, %.2fx VM geomean; tiers: %.1fx warm speedup, %d cost \
           mismatches%s"
          (i "exec.n_benchmarks" d) (f "exec.geomean_speedup" d)
          (f "tiers.warm_speedup" d) (i "tiers.n_cost_mismatches" d)
          (note g Min_speedup (sp "; all above %.2fx")) );
    ( serve_load_schema_version, Obj serve_load_obj, [],
      fun _ d ->
        sp
          "%d connections, %d requests, %.0f req/s; p50 %.2f ms, p95 %.2f, \
           p99 %.2f; %d coalesced, %d refined, %d busy, %d protocol errors"
          (i "concurrency" d) (i "n_requests" d) (f "throughput_rps" d)
          (1000. *. f "latency.p50" d) (1000. *. f "latency.p95" d)
          (1000. *. f "latency.p99" d) (i "n_coalesced" d) (i "n_refined" d)
          (i "n_busy" d) (i "n_protocol_errors" d) );
    ( lift_schema_version, Obj lift_obj, [ Min_success ],
      fun g d ->
        sp "%d kernels, %d lifted, %.0f%% success%s" (i "n_kernels" d)
          (i "n_lifted" d) (100. *. f "success_rate" d)
          (note g Min_success (fun m ->
               sp ", at least %.0f%% required" (100. *. m))) );
  ]

let report_schemas = List.map (fun (id, _, _, _) -> id) report_table

let schemas_accepting gate =
  List.filter_map
    (fun (id, _, gs, _) -> if List.mem gate gs then Some id else None)
    report_table

let check_report ?min_speedup ?min_success doc =
  let gates = gates ?min_speedup ?min_success () in
  let id =
    Option.value ~default:""
      (Option.bind (Json.member "schema" doc) Json.to_string_opt)
  in
  match List.find_opt (fun (id', _, _, _) -> id' = id) report_table with
  | None ->
      Error
        (Printf.sprintf "unknown schema %S; known schemas: %s" id
           (String.concat ", " report_schemas))
  | Some (_, shape, accepted, summary) -> (
      match List.find_opt (fun (g, _) -> not (List.mem g accepted)) gates with
      | Some (g, _) ->
          Error
            (Printf.sprintf "%s only applies to %s reports" (gate_flag g)
               (String.concat " and " (schemas_accepting g)))
      | None -> (
          match validate ~gates shape doc with
          | Error msg -> Error (Printf.sprintf "invalid %s report: %s" id msg)
          | Ok () ->
              Ok (Printf.sprintf "valid %s (%s)" id (summary gates doc))))
