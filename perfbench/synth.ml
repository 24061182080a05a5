(* Synthesis: the synth-cold workload and the tiered miss path of
   serve-hit's traced run.

   synth-cold optimizes the paper's 33 programs and the 9 ml kernels
   from nothing, with an empty stub cache and no persistent store, two
   programs at a time; its traced run adds the 8 lifted loop kernels.
   The tiered miss path sends the paper's 33 through tiered serving
   over a depth-2 rule database mined first, one at a time, so that
   tier-3 feedback reaches later programs in a fixed order and the
   answers repeat exactly.

   The traced variants call the public steps that Superopt composes, in
   its order, with a span around each call. *)

open Util
module S = Stenso
module B = Suite.Benchmarks
module Tel = S.Telemetry

let timeout = 60.
let rules_depth = 2

let config =
  S.Config.default
  |> S.Config.with_estimator `Flops
  |> S.Config.with_timeout timeout
  |> S.Config.with_jobs 1

let tiered_config = S.Config.with_rules_depth rules_depth config
let model = S.Config.model config

type input = Prog of B.t | Kernel of string * S.Lift.Loop_ast.kernel

let name = function Prog b -> b.B.name | Kernel (n, _) -> n

let paper_inputs () = List.map (fun b -> Prog b) (sized B.all)
let ml_inputs () = List.map (fun b -> Prog b) (sized B.ml)

let kernel_inputs () =
  List.map
    (fun (k : Suite.Lifted.t) ->
      Kernel (k.name, S.Lift.Loop_parser.kernel k.source))
    (sized Suite.Lifted.all)

let empty_stats =
  {
    S.Search.nodes = 0;
    decomps = 0;
    pruned_simp = 0;
    pruned_bnb = 0;
    memo_hits = 0;
    memo_misses = 0;
    elapsed = 0.;
    timed_out = false;
    library_size = 0;
  }

type answer = {
  input : input;
  env : Dsl.Types.env;
  optimized : Ast.t option;  (** [None] when the operation failed *)
  cost_before : float;
  cost_after : float;
  tier : int;
  latency : float;
  failure : string option;
  search : S.Search.stats option;
  lift : S.Lift.stats option;
}

let failed_answer input latency msg =
  {
    input;
    env = [];
    optimized = None;
    cost_before = nan;
    cost_after = nan;
    tier = 0;
    latency;
    failure = Some msg;
    search = None;
    lift = None;
  }

let of_outcome input ~env ?lift ~latency (o : S.Superopt.outcome) =
  let failure =
    if not o.verified then Some "unverified improvement"
    else if o.search.stats.timed_out then Some "search timeout"
    else None
  in
  {
    input;
    env;
    optimized = Some o.optimized;
    cost_before = o.original_cost;
    cost_after = o.optimized_cost;
    tier = o.tier;
    latency;
    failure;
    search = Some o.search.stats;
    lift;
  }

(* One untraced operation: what a user of the library calls. *)
let run_one ?store ~config ~stub_cache input =
  let t0 = now () in
  match
    match input with
    | Prog b ->
        `Dsl
          (b.env, S.Superopt.optimize ~config ?store ~stub_cache ~model ~env:b.env b.program)
    | Kernel (_, k) -> (
        match S.Lift.optimize ~config ?store ~stub_cache k with
        | Ok (l, o) -> `Lift (l, o)
        | Error e -> `Failed ("failed lift: " ^ S.Lift.error_message e))
  with
  | `Dsl (env, o) -> of_outcome input ~env ~latency:(now () -. t0) o
  | `Lift (l, o) ->
      of_outcome input ~env:l.env ~lift:l.stats ~latency:(now () -. t0) o
  | `Failed msg -> failed_answer input (now () -. t0) msg
  | exception e -> failed_answer input (now () -. t0) (Printexc.to_string e)

(* ------------------------------------------------------------------ *)
(* Checks                                                              *)
(* ------------------------------------------------------------------ *)

(* The oracle and the cost re-estimate; [None] when the answer holds. *)
let check ~seed (a : answer) =
  match (a.failure, a.optimized) with
  | Some f, _ -> Some f
  | None, None -> Some "no program"
  | None, Some opt ->
      let agrees =
        match a.input with
        | Prog b -> dsl_agrees ~seed ~env:b.env b.program opt
        | Kernel (_, k) -> lift_agrees ~seed k opt
      in
      let recost = Cost.Model.program_cost model a.env opt in
      if not agrees then Some "wrong answer (interpreter oracle)"
      else if Float.abs (recost -. a.cost_after) > 1e-9 *. (1. +. recost) then
        Some (Printf.sprintf "cost_after %g but the program costs %g" a.cost_after recost)
      else None

(* Every answer for the same program must cost exactly the same. *)
let repeat_check (first : answer list) (again : answer list) =
  List.filter_map
    (fun (a : answer) ->
      match List.find_opt (fun (b : answer) -> name b.input = name a.input) again with
      | Some b when a.failure = None && b.failure = None && a.cost_after <> b.cost_after ->
          Some
            ( name a.input,
              Printf.sprintf "cost_after %g then %g" a.cost_after b.cost_after )
      | _ -> None)
    first

(* ------------------------------------------------------------------ *)
(* Generated-code speed                                                *)
(* ------------------------------------------------------------------ *)

(* A compiled program's timed batch: enough runs (>= 2 ms) to be read
   reliably.  Returns the time of one batch divided by its runs. *)
let batch compiled inputs =
  let lookup n = List.assoc n inputs in
  let once () = ignore (Sys.opaque_identity (S.Exec.run compiled lookup)) in
  once ();
  let run n = snd (time (fun () -> for _ = 1 to n do once () done)) in
  let rec size n = if n >= 1 lsl 16 || run n >= 2e-3 then n else size (2 * n) in
  let n = size 1 in
  fun () -> run n /. float_of_int n

(* Batches per program.  The rounds go over all programs in turn, so
   each program's batches are spread over the whole measurement, and a
   program's time is its fastest batch: the one least disturbed by the
   rest of the machine. *)
let exec_rounds = 15

type exec_point = {
  compile_s : float;
  run_s : float;
  exec_stats : S.Exec.stats;
}

(* Each answered program at its benchmark's large [perf_env] shapes,
   when it type-checks there (programs that bake shapes into
   [reshape] attributes do not). *)
let exec_points ~seed answers =
  (* Start from a compacted heap, so that collections left over from
     synthesis do not land in the timed runs. *)
  Gc.compact ();
  let compiled =
    List.filter_map
      (fun (a : answer) ->
        match (a.optimized, B.find_opt (name a.input)) with
        | Some opt, Some b when Dsl.Types.well_typed b.perf_env opt ->
            let compiled, compile_s = time (fun () -> S.Exec.compile ~env:b.perf_env opt) in
            let st = Random.State.make [| 0xe7ec; seed |] in
            let inputs = Dsl.Interp.random_inputs st b.perf_env in
            Some (compiled, compile_s, batch compiled inputs)
        | _ -> None)
      answers
  in
  let fastest = Array.make (List.length compiled) infinity in
  for _ = 1 to exec_rounds do
    List.iteri (fun i (_, _, batch) -> fastest.(i) <- Float.min fastest.(i) (batch ())) compiled
  done;
  List.mapi
    (fun i (compiled, compile_s, _) ->
      { compile_s; run_s = fastest.(i); exec_stats = S.Exec.stats compiled })
    compiled

(* ------------------------------------------------------------------ *)
(* Probe                                                               *)
(* ------------------------------------------------------------------ *)

(* A fixed cold synthesis, repeated to check that its cost repeats and,
   in traced runs, to read the spec-key cost per build at the start and
   at the end of a run. *)
let probe_program = B.find "trace_dot"

let probe_cost ?tel () =
  (S.Superopt.optimize ?tel ~config ~stub_cache:(S.Stub.Cache.create ()) ~model
     ~env:probe_program.env probe_program.program)
    .optimized_cost

(* ------------------------------------------------------------------ *)
(* Traced composition                                                  *)
(* ------------------------------------------------------------------ *)

let counter tel name = Option.value ~default:0 (List.assoc_opt name (Tel.counters tel))
let accum tel name = Option.value ~default:0. (List.assoc_opt name (Tel.accs tel))

(* Superopt.superoptimize, step by step: symbolic execution, stub
   enumeration through the shared cache, search (with spec-key building
   as its child span) and symbolic re-verification. *)
let traced_superopt tr ~stub_cache ?bound ~env prog =
  let sc = S.Config.search_config config in
  let original_cost = Cost.Model.program_cost model env prog in
  let initial_bound =
    match bound with Some b -> Float.min b original_cost | None -> original_cost
  in
  let spec = Trace.span tr "dsl.sexec" (fun () -> Dsl.Sexec.exec_env env prog) in
  let consts = S.Superopt.consts_of prog in
  let stub_config =
    { sc.stub_config with S.Stub.deadline = Some (now () +. sc.timeout) }
  in
  let lib, shared =
    Trace.span tr "stub.enum" (fun () ->
        S.Stub.Cache.enumerate stub_cache ~config:stub_config ~model ~consts env)
  in
  Trace.count tr "stub.lookups" 1;
  if shared then Trace.count tr "stub.cache_hits" 1
  else begin
    Trace.count tr "stub.attempts" (S.Stub.attempts lib);
    Trace.count tr "stub.library_size" (S.Stub.size lib)
  end;
  let tel = Tel.create () in
  let search =
    Trace.span tr "search" (fun () ->
        S.Search.run ~tel ~config:sc ~library:lib ~model ~env ~spec
          ~initial_bound ~consts ())
  in
  Trace.record tr "spec.key" (accum tel "spec.key_build_seconds");
  Trace.count tr "spec.key_builds" (counter tel "spec.key_builds");
  Trace.count tr "spec.key_hits" (counter tel "spec.key_cache_hits");
  let st = search.stats in
  Trace.count tr "search.nodes" st.nodes;
  Trace.count tr "search.decomps" st.decomps;
  Trace.count tr "search.pruned_simp" st.pruned_simp;
  Trace.count tr "search.pruned_bnb" st.pruned_bnb;
  Trace.count tr "search.memo_hits" st.memo_hits;
  Trace.count tr "search.memo_lookups" (st.memo_hits + st.memo_misses);
  if st.timed_out then Trace.count tr "search.timeouts" 1;
  let improved =
    match search.program with
    | Some c ->
        let cost = Cost.Model.program_cost model env c in
        if cost < original_cost then Some (c, cost) else None
    | None -> None
  in
  (* Superopt.superoptimize re-checks a tier-3 answer symbolically only;
     the VM differential belongs to tier 2. *)
  let verified c =
    Trace.span tr "verify.symbolic" (fun () -> S.Superopt.robust_equivalent ~env prog c)
  in
  match improved with
  | Some (c, cost) when verified c -> (c, original_cost, cost, st)
  | Some _ ->
      Trace.count tr "verify.rejected" 1;
      (prog, original_cost, original_cost, st)
  | None -> (prog, original_cost, original_cost, st)

let traced_answer tr input ~env ?lift f =
  let t0 = now () in
  match Trace.op tr f with
  | opt, cost_before, cost_after, tier, (st : S.Search.stats) ->
      {
        input;
        env;
        optimized = Some opt;
        cost_before;
        cost_after;
        tier;
        latency = now () -. t0;
        failure = (if st.timed_out then Some "search timeout" else None);
        search = Some st;
        lift;
      }
  | exception e -> failed_answer input (now () -. t0) (Printexc.to_string e)

(* A cold operation: for loop kernels, the lift's enumeration and value
   table are built first through the same caches Lift consults, so the
   lift's own span is sketch search, value pruning and certification. *)
let traced_cold tr ~stub_cache input =
  match input with
  | Prog b ->
      traced_answer tr input ~env:b.env (fun () ->
          let o, cb, ca, st = traced_superopt tr ~stub_cache ~env:b.env b.program in
          (o, cb, ca, 3, st))
  | Kernel (_, k) -> (
      let env = S.Lift.Loop_ast.dsl_env k in
      let lifted = ref None in
      let a =
        traced_answer tr input ~env (fun () ->
            let consts = S.Lift.Loop_ast.literals k in
            let sconfig = S.Lift.default_stub_config in
            let lib, _ =
              Trace.span tr "stub.enum" (fun () ->
                  S.Stub.Cache.enumerate stub_cache ~config:sconfig ~model ~consts env)
            in
            let st = Random.State.make [| 0x11f7 |] in
            let draws = List.init 3 (fun _ -> Dsl.Interp.random_inputs st env) in
            let library_fp =
              Printf.sprintf "%s;model=%s"
                (S.Stub.fingerprint sconfig ~consts env)
                model.Cost.Model.name
            in
            ignore
              (Trace.span tr "stub.values" (fun () ->
                   S.Stub.Values.get ~library_fp lib draws));
            match Trace.span tr "lift" (fun () -> S.Lift.lift ~config ~stub_cache k) with
            | Error e -> failwith ("failed lift: " ^ S.Lift.error_message e)
            | Ok l ->
                lifted := Some l;
                let o, cb, ca, st = traced_superopt tr ~stub_cache ~env:l.env l.prog in
                (o, cb, ca, 3, st))
      in
      match !lifted with
      | Some l -> { a with env = l.env; lift = Some l.stats }
      | None -> a)

(* Tiered serving, step by step, mirroring Superopt.optimize with a
   store and a rule depth: tier 1 (store key, store lookup), tier 2
   (rule fixpoint, e-graph saturation and extraction, optima lookup,
   re-certification of the cheapest candidate), else tier 3 (the cold
   composition above, bounded by the verified tier-2 candidate) with
   feedback into the rule database; answers are recorded to the store. *)
let traced_tiered tr ~stub_cache ~store (b : B.t) =
  let env = b.env and prog = b.program in
  let cost p =
    if Dsl.Types.well_typed env p then
      match Cost.Model.program_cost model env p with c -> c | exception _ -> infinity
    else infinity
  in
  let record ~tier ~improved ~original_cost opt opt_cost key st =
    Trace.span tr "store.record" (fun () ->
        S.Store.record_outcome store ~key
          {
            S.Store.version = S.Version.current;
            original = Dsl.Parser.unparse env prog;
            optimized = Dsl.Parser.unparse env opt;
            improved;
            original_cost;
            optimized_cost = opt_cost;
            stats = st;
            refined = tier = 3;
          });
    (opt, original_cost, opt_cost, tier, st)
  in
  traced_answer tr (Prog b) ~env (fun () ->
      let spec = Trace.span tr "dsl.sexec" (fun () -> Dsl.Sexec.exec_env env prog) in
      let key =
        Trace.span tr "store.key" (fun () ->
            S.Superopt.store_key ~config:tiered_config ~model ~env ~spec prog)
      in
      match Trace.span tr "store.find" (fun () -> S.Store.find_outcome store ~key) with
      | Some e ->
          let _, opt = Dsl.Parser.program e.optimized in
          (opt, e.original_cost, e.optimized_cost, 1, e.stats)
      | None -> (
          let original_cost = cost prog in
          let db =
            Trace.span tr "tier.db" (fun () ->
                S.Rules_db.find store
                  ~key:(S.Rules_db.key ~env ~model_id:model.Cost.Model.name ~depth:rules_depth))
          in
          let t2 =
            match db with
            | None -> None
            | Some db ->
                let rules = List.map (fun r -> r.S.Rules_db.rule) db.rules in
                let fixpoint =
                  Trace.span tr "tier.fixpoint" (fun () ->
                      S.Rules.apply_fixpoint ~max_steps:64 ~cost rules prog)
                in
                let saturated =
                  Trace.span tr "tier.saturation" (fun () ->
                      match
                        let g = S.Egraph.create env in
                        let cls = S.Egraph.add g prog in
                        ignore (S.Egraph.saturate ~rules g);
                        S.Egraph.extract g ~model cls
                      with
                      | p -> Some p
                      | exception S.Egraph.Unsupported _ -> None)
                in
                let sat_cost = match saturated with Some p -> cost p | None -> infinity in
                if cost fixpoint < Float.min sat_cost original_cost then
                  Trace.count tr "tier.fixpoint_only_wins" 1;
                let optimum = S.Rules_db.lookup_optimum db (S.Rules_db.spec_digest spec) in
                let seen = Hashtbl.create 8 in
                let candidates =
                  List.filter
                    (fun c ->
                      let k = Ast.to_string c in
                      (not (Hashtbl.mem seen k))
                      && (Hashtbl.add seen k ();
                          cost c < infinity))
                    (List.filter_map Fun.id [ Option.map snd optimum; saturated; Some fixpoint ])
                  |> List.stable_sort (fun a b -> Float.compare (cost a) (cost b))
                in
                let verified c =
                  Ast.equal c prog
                  ||
                  match
                    Trace.span tr "verify.symbolic" (fun () ->
                        S.Superopt.robust_equivalent ~env prog c)
                    && Trace.span tr "verify.vm" (fun () ->
                           S.Superopt.validate_concrete ~env prog c)
                  with
                  | ok -> ok
                  | exception _ -> false
                in
                Option.map
                  (fun best ->
                    let c = cost best in
                    let certified =
                      c <= 0.
                      || c < original_cost
                         &&
                         match optimum with
                         | Some (oc, _) -> c <= oc +. (1e-9 *. (1. +. Float.abs c))
                         | None -> false
                    in
                    (best, c, certified))
                  (List.find_opt verified candidates)
          in
          match t2 with
          | Some (p, c, true) when c <= original_cost ->
              let improved = c < original_cost in
              let opt, oc = if improved then (p, c) else (prog, original_cost) in
              record ~tier:2 ~improved ~original_cost opt oc key
                empty_stats
          | _ ->
              let bound = Option.map (fun (_, c, _) -> c) t2 in
              let opt, _, oc, st = traced_superopt tr ~stub_cache ?bound ~env prog in
              let opt, oc =
                match t2 with
                | Some (p, c, _) when c < oc && c < original_cost -> (p, c)
                | _ -> (opt, oc)
              in
              let improved = oc < original_cost in
              Trace.span tr "tier.feedback" (fun () ->
                  let rule =
                    if not improved then None
                    else
                      let r = S.Rules.generalize prog opt in
                      if r.metavars <> [] && (not (Ast.equal r.lhs r.rhs)) && S.Rules.closed r
                      then Some (r, original_cost -. oc)
                      else None
                  in
                  let model_id = model.Cost.Model.name in
                  S.Rules_db.record_feedback store
                    ~key:(S.Rules_db.key ~env ~model_id ~depth:rules_depth)
                    ~model_id ~depth:rules_depth ?rule
                    ~spec_digest:(S.Rules_db.spec_digest spec) ~cost:oc
                    ~prog:(Ast.to_string opt) ());
              record ~tier:3 ~improved ~original_cost opt oc key st))

(* ------------------------------------------------------------------ *)
(* The workloads                                                       *)
(* ------------------------------------------------------------------ *)

(* Failures of one pass: every failed or wrong operation, plus any
   tier-1 or store hit, which the first pass of a workload that starts
   from an empty store must never see. *)
let pass_failures ~seed answers =
  List.concat
    (List.mapi
       (fun i (a : answer) ->
         (match check ~seed:(seed + i) a with
         | Some why -> [ (name a.input, why, a.failure = None) ]
         | None -> [])
         @
         if a.tier = 1 then [ (name a.input, "tier-1 hit on the first pass", true) ]
         else [])
       answers)

let cost_ratios answers =
  List.filter_map
    (fun (a : answer) ->
      if a.failure = None && a.cost_after > 0. then Some (a.cost_before /. a.cost_after)
      else None)
    answers

let latencies answers = List.map (fun (a : answer) -> a.latency) answers

(* Layers measured on every synthesis pass from the answers' own
   records. *)
let answer_layers answers =
  let tier t = float_of_int (List.length (List.filter (fun (a : answer) -> a.tier = t) answers)) in
  let tier_ms t =
    match List.filter (fun (a : answer) -> a.tier = t) answers with
    | [] -> 0.
    | xs -> median (latencies xs) *. 1e3
  in
  let lifts = List.filter_map (fun (a : answer) -> a.lift) answers in
  let lsum f = sum (List.map f lifts) in
  [
    ("tier.t1", tier 1); ("tier.t2", tier 2); ("tier.t3", tier 3);
    ("tier.t2_ms_p50", tier_ms 2); ("tier.t3_ms_p50", tier_ms 3);
    ("lift.s", lsum (fun (l : S.Lift.stats) -> l.lift_s));
    ("lift.sketches", lsum (fun l -> float_of_int l.sketches));
    ("lift.pruned_by_value", lsum (fun l -> float_of_int l.pruned_by_value));
    ("lift.certified", lsum (fun l -> float_of_int l.certified));
    ("lift.verify_s", lsum (fun l -> l.verify_s));
    ("lift.library_size", lsum (fun l -> float_of_int l.library_size));
  ]

let exec_layers points =
  let stat f = sum (List.map (fun p -> float_of_int (f p.exec_stats)) points) in
  [
    ("exec.compile_us", median (List.map (fun p -> p.compile_s) points) *. 1e6);
    ("exec.run_us", geomean (List.map (fun p -> p.run_s *. 1e6) points));
    ("exec.ops_fused", stat (fun s -> s.ops_fused));
    ("exec.arena_bytes", stat (fun s -> s.arena_bytes));
    ("exec.compiles", float_of_int (List.length points));
  ]

(* The per-layer numbers of a traced pass. *)
let trace_layers (tr : Trace.t) =
  let c = Trace.counted tr and t = Trace.total tr in
  [
    ("dsl.sexec_us", Trace.median_us tr "dsl.sexec");
    ("spec.key_s", t "spec.key");
    ("spec.key_builds", c "spec.key_builds");
    ("spec.key_hit_ratio", Trace.ratio (c "spec.key_hits") (c "spec.key_hits" +. c "spec.key_builds"));
    ("stub.enum_s", t "stub.enum");
    ("stub.attempts", c "stub.attempts");
    ("stub.library_size", c "stub.library_size");
    ("stub.kept_ratio", Trace.ratio (c "stub.library_size") (c "stub.attempts"));
    ("stub.cache_hit_ratio", Trace.ratio (c "stub.cache_hits") (c "stub.lookups"));
    ("stub.values_s", t "stub.values");
    ("search.self_s", t "search" -. t "spec.key");
    ("search.nodes", c "search.nodes");
    ("search.decomps", c "search.decomps");
    ("search.pruned_simp", c "search.pruned_simp");
    ("search.pruned_bnb", c "search.pruned_bnb");
    ("search.memo_hit_ratio", Trace.ratio (c "search.memo_hits") (c "search.memo_lookups"));
    ("search.timeouts", c "search.timeouts");
    ("verify.symbolic_s", t "verify.symbolic");
    ("verify.vm_s", t "verify.vm");
    ("tier.saturation_s", t "tier.saturation");
    ("tier.fixpoint_s", t "tier.fixpoint");
    ("tier.fixpoint_only_wins", c "tier.fixpoint_only_wins");
    ("store.find_us", Trace.median_us tr "store.find");
    ("store.record_us", Trace.median_us tr "store.record");
    ("trace.unattributed_share", Trace.unattributed tr ~children:[ "spec.key" ]);
  ]

let mismatches untraced traced =
  List.length (repeat_check untraced traced)

(* Spec-key cost per build in a probe, from the search's own counters. *)
let probe_key_us () =
  let tel = Tel.create () in
  ignore (probe_cost ~tel ());
  1e6 *. accum tel "spec.key_build_seconds"
  /. float_of_int (max 1 (counter tel "spec.key_builds"))

let finish ~seed ~setup_s ~wall ~answers ~extra_failures ~detail ~layers =
  (* Read before the VM timing, whose compiled programs are the
     benchmark's, not the optimizer's. *)
  let rss = self_rss_mb () in
  let fails = pass_failures ~seed answers @ extra_failures in
  let exec = exec_points ~seed answers in
  let lat = latencies answers in
  let attempted = List.length answers in
  {
    e2e =
      [
        ("setup_s", setup_s);
        ("latency_ms", geomean lat *. 1e3);
        ("tail_ms", slowest_tenth_mean lat *. 1e3);
        ("throughput_per_s", float_of_int attempted /. wall);
        ("cost_ratio_geomean", geomean (cost_ratios answers));
        ("run_us_geomean", geomean (List.map (fun p -> p.run_s *. 1e6) exec));
        ("peak_rss_mb", rss);
        ("ok_frac", 1. -. (float_of_int (List.length fails) /. float_of_int attempted));
      ];
    layers = (if layers = [] then [] else layers @ answer_layers answers @ exec_layers exec @ gc_layers ());
    attempted;
    failures = List.map (fun (n, why, _) -> (n, why)) fails;
    wrong = List.length (List.filter (fun (_, _, w) -> w) fails);
    detail =
      detail
      @ [
          ("pass_s", Json.Float wall);
          ("latency_ms", summary ~scale:1e3 ~p:(tail_level (List.length lat)) lat);
          ( "answers",
            (* One entry per program, with the latency of each time it
               was optimized. *)
            Json.Obj
              (List.filter_map
                 (fun (a : answer) ->
                   let same = List.filter (fun (b : answer) -> name b.input = name a.input) answers in
                   if List.hd same != a then None
                   else
                     Some
                       ( name a.input,
                         Json.Obj
                           [ ("ms", Json.List (List.map (fun (b : answer) -> Json.Float (b.latency *. 1e3)) same));
                             ("tier", Json.Int a.tier);
                             ("cost_before", Json.Float a.cost_before);
                             ("cost_after", Json.Float a.cost_after) ] ))
                 answers) );
        ];
  }

(* The probe's answer must cost what the pass's answer for the same
   program cost. *)
let probe_failures answers =
  let costs = List.init 2 (fun _ -> probe_cost ()) in
  match List.find_opt (fun (a : answer) -> name a.input = probe_program.name) answers with
  | Some a when a.failure = None && List.exists (fun c -> c <> a.cost_after) costs ->
      [ (probe_program.name, "cost_after differs across repeats", true) ]
  | _ -> []

(* synth-cold: the 42 DSL programs from nothing, no store, two at a
   time. *)
let cold ~seed ~trace =
  (* The ml kernels first, so that the longest operations start early. *)
  let paper = paper_inputs () in
  let inputs = ml_inputs () @ paper in
  (* A cold compile sets up nothing but its process: set-up is the
     median time to start this executable and let it exit, of five
     starts. *)
  let start () =
    let exe = Sys.executable_name in
    let t0 = now () in
    let pid = Unix.create_process exe [| exe; "--ready" |] Unix.stdin Unix.stdout Unix.stderr in
    ignore (Unix.waitpid [] pid);
    now () -. t0
  in
  let setup_s = median (List.init 5 (fun _ -> start ())) in
  let pass ?(inputs = inputs) f =
    time (fun () ->
        let stub_cache = S.Stub.Cache.create () in
        S.Par.map ~jobs:2 (f ~stub_cache) inputs)
  in
  let untraced ~stub_cache i = run_one ~config ~stub_cache i in
  if not trace then begin
    let answers, wall = pass untraced in
    finish ~seed ~setup_s ~wall ~answers ~extra_failures:(probe_failures answers) ~detail:[]
      ~layers:[]
  end
  else begin
    (* The traced run also lifts the 8 loop kernels (first, as the
       longest operations), so that the lift layer is measured.  The
       tracing overhead is taken on the first ten of the paper's
       programs, which an untraced pass runs again. *)
    let key_first = probe_key_us () in
    let untraced, _ = pass ~inputs:(List.filteri (fun i _ -> i < 10) paper) untraced in
    let traced, wall =
      pass ~inputs:(kernel_inputs () @ inputs) (fun ~stub_cache input ->
          let tr = Trace.create () in
          (tr, traced_cold tr ~stub_cache input))
    in
    let answers = List.map snd traced in
    let again =
      List.filter (fun (a : answer) -> List.exists (fun (u : answer) -> name u.input = name a.input) untraced) answers
    in
    let layers =
      trace_layers (Trace.merge (List.map fst traced))
      @ [
          ("spec.key_us_first", key_first);
          ("spec.key_us_last", probe_key_us ());
          ("trace.overhead", sum (latencies again) /. sum (latencies untraced));
          ("trace.answer_mismatches", float_of_int (mismatches untraced answers));
        ]
    in
    finish ~seed ~setup_s ~wall ~answers ~extra_failures:[] ~detail:[] ~layers
  end

(* Mine the depth-2 rule database of every distinct environment, two
   environments at a time, into each of [stores]. *)
let mine_into stores inputs =
  let model_id = model.Cost.Model.name in
  let envs =
    List.sort_uniq compare
      (List.filter_map (function Prog b -> Some b.B.env | Kernel _ -> None) inputs)
  in
  let mined =
    S.Par.map ~jobs:2 (fun env -> (env, S.Mine.mine_env ~jobs:1 ~depth:rules_depth ~model env)) envs
  in
  List.iter
    (fun (env, (db, _)) ->
      List.iter
        (fun store -> S.Rules_db.record store ~key:(S.Rules_db.key ~env ~model_id ~depth:rules_depth) db)
        stores)
    mined;
  List.map (fun (_, (_, st)) -> st) mined

(* Run two passes side by side, one per domain. *)
let side_by_side f g =
  match S.Par.map ~jobs:2 (fun h -> h ()) [ f; g ] with
  | [ a; b ] -> (a, b)
  | _ -> assert false

(* The tiered miss path, for serve-hit's traced run: the paper's 33
   programs through tiered serving, in a fixed order, over a freshly
   mined depth-2 rule database and an empty outcome store, as a daemon
   started with [--rules-depth 2] answers them.  The pass runs untraced
   and, beside it on a store of its own, step by step (see
   [traced_tiered]); then the full search of the programs tier 2
   answered counts the answers where tiering costs more.  Returns the
   per-layer numbers of the tier, rule, search and verification layers,
   the detail and the failed operations. *)
let tier_layers ~seed ~dir =
  let inputs = paper_inputs () in
  let store_at sub = S.Store.open_store ~dir:(Filename.concat dir sub) () in
  let store = store_at "tiered" and tstore = store_at "tiered-traced" in
  let mined, mine_s = time (fun () -> mine_into [ store; tstore ] inputs) in
  let tr = Trace.create () in
  let pass f () =
    let stub_cache = S.Stub.Cache.create () in
    time (fun () -> List.map (f ~stub_cache) inputs)
  in
  let (answers, wall), (traced, twall) =
    side_by_side
      (pass (fun ~stub_cache i -> run_one ~store ~config:tiered_config ~stub_cache i))
      (pass (fun ~stub_cache -> function
         | Prog b -> traced_tiered tr ~stub_cache ~store:tstore b
         | Kernel _ -> assert false))
  in
  let tier2 = List.filter (fun (a : answer) -> a.tier = 2) answers in
  let full =
    let stub_cache = S.Stub.Cache.create () in
    S.Par.map ~jobs:2 (fun (a : answer) -> run_one ~config ~stub_cache a.input) tier2
  in
  let worse =
    List.filter_map
      (fun ((a : answer), (f : answer)) ->
        if a.failure = None && f.failure = None && a.cost_after > f.cost_after then
          Some
            ( name a.input,
              Json.Obj [ ("tiered", Json.Float a.cost_after); ("full_search", Json.Float f.cost_after) ] )
        else None)
      (List.combine tier2 full)
  in
  let total f = float_of_int (List.fold_left (fun acc (s : S.Mine.env_stats) -> acc + f s) 0 mined) in
  let layers =
    List.filter
      (fun (n, _) ->
        List.exists (fun p -> String.starts_with ~prefix:p n) [ "stub."; "search."; "verify."; "tier." ]
        || List.mem n [ "store.record_us"; "spec.key_hit_ratio" ])
      (trace_layers tr @ answer_layers answers)
    @ [
        ("tier.cost_mismatches", float_of_int (List.length worse));
        ("mine.s", mine_s);
        ("mine.rules", total (fun s -> s.rules));
        ("mine.optima", total (fun s -> s.optima));
        ("trace.answer_mismatches", float_of_int (mismatches answers traced));
      ]
  in
  let detail =
    [ ( "tiered_misses",
        Json.Obj
          [ ("mine_s", Json.Float mine_s); ("pass_s", Json.Float wall);
            ("traced_pass_s", Json.Float twall);
            ("tiers", Json.Obj (List.map (fun (a : answer) -> (name a.input, Json.Int a.tier)) answers));
            ("tiered_worse_than_full_search", Json.Obj worse) ] ) ]
  in
  let failures =
    pass_failures ~seed answers @ List.map (fun (n, why) -> (n, why, true)) (repeat_check answers traced)
  in
  (layers, detail, failures, List.length answers)
