(* The benchmark's entry point; run.py builds it and runs it with the
   workload, the seed, the run length, the trace switch, the CLI binary
   under test, a scratch directory and the process start time. *)

open Util

let end_to_end =
  [ ("setup_s", "s"); ("latency_ms", "ms"); ("tail_ms", "ms"); ("throughput_per_s", "1/s");
    ("cost_ratio_geomean", "x"); ("run_us_geomean", "us");
    ("peak_rss_mb", "MB"); ("ok_frac", "share") ]

let per_layer =
  [ ("dsl.parse_us", "us"); ("dsl.typecheck_us", "us"); ("dsl.sexec_us", "us");
    ("spec.key_s", "s"); ("spec.key_builds", "count"); ("spec.key_hit_ratio", "ratio");
    ("spec.key_us_first", "us"); ("spec.key_us_last", "us");
    ("stub.enum_s", "s"); ("stub.attempts", "count"); ("stub.library_size", "count");
    ("stub.kept_ratio", "ratio"); ("stub.cache_hit_ratio", "ratio"); ("stub.values_s", "s");
    ("search.self_s", "s"); ("search.nodes", "count"); ("search.decomps", "count");
    ("search.pruned_simp", "count"); ("search.pruned_bnb", "count");
    ("search.memo_hit_ratio", "ratio"); ("search.timeouts", "count");
    ("verify.symbolic_s", "s"); ("verify.vm_s", "s");
    ("tier.t1", "count"); ("tier.t2", "count"); ("tier.t3", "count");
    ("tier.t2_ms_p50", "ms"); ("tier.t3_ms_p50", "ms"); ("tier.saturation_s", "s");
    ("tier.fixpoint_s", "s"); ("tier.fixpoint_only_wins", "count");
    ("tier.cost_mismatches", "count"); ("mine.s", "s"); ("mine.rules", "count");
    ("mine.optima", "count");
    ("store.find_us", "us"); ("store.record_us", "us"); ("store.hits", "count");
    ("store.misses", "count"); ("store.evictions", "count");
    ("serve.handle_us", "us"); ("serve.handle_us_first", "us"); ("serve.handle_us_last", "us");
    ("serve.decode_us", "us"); ("serve.store_key_us", "us");
    ("serve.store_key_us_first", "us"); ("serve.store_key_us_last", "us");
    ("serve.tier1_us", "us"); ("serve.render_us", "us"); ("serve.net_queue_us", "us");
    ("serve.coalesced", "count"); ("serve.busy", "count"); ("serve.age_ratio", "x");
    ("serve.hit_p50_us", "us"); ("serve.hit_p99_us", "us");
    ("exec.compile_us", "us"); ("exec.run_us", "us"); ("exec.ops_fused", "count");
    ("exec.arena_bytes", "bytes"); ("exec.compiles", "count");
    ("lift.s", "s"); ("lift.sketches", "count"); ("lift.pruned_by_value", "count");
    ("lift.certified", "count"); ("lift.verify_s", "s"); ("lift.library_size", "count");
    ("gc.major_collections", "count"); ("gc.top_heap_mb", "MB");
    ("trace.unattributed_share", "share"); ("trace.overhead", "x");
    ("trace.answer_mismatches", "count"); ("load.late_p99_us", "us") ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10. and trace = ref 0 in
  let cli = ref "" and dir = ref "" and spawn = ref (now ()) in
  let solved = ref "" and write_solved = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME");
      ("--seed", Arg.Set_int seed, "N");
      ("--seconds", Arg.Set_float seconds, "S");
      ("--trace", Arg.Set_int trace, "0|1");
      ("--cli", Arg.Set_string cli, "PATH stenso CLI binary (serve workloads)");
      ("--dir", Arg.Set_string dir, "DIR scratch directory for stores and logs");
      ("--solved", Arg.Set_string solved, "FILE the solved programs serve-hit's store is filled with");
      ("--write-solved", Arg.Set_string write_solved, "FILE solve the 42 programs, write them to FILE and exit");
      ("--spawn", Arg.Set_float spawn, "T process start, seconds since the epoch");
      ("--tiny", Arg.Set tiny, " a few programs per workload (smoke test)");
      ("--ready", Arg.Unit (fun () -> exit 0), " exit at once (synth-cold times its start)") ]
    (fun a -> raise (Arg.Bad a))
    "bench --workload NAME --seed N --seconds S --trace 0|1 --cli PATH --dir DIR";
  if !write_solved <> "" then begin
    Load.write_solved !write_solved;
    exit 0
  end;
  let trace = !trace = 1 and seed = !seed and spawn = !spawn and dir = !dir in
  let r =
    match !workload with
    | "synth-cold" -> Synth.cold ~seed ~trace
    | "serve-hit" -> Load.serve ~seed ~seconds:!seconds ~trace ~solved:!solved ~cli:!cli ~dir ~spawn
    | w ->
        prerr_endline ("unknown workload: " ^ w);
        exit 2
  in
  print_detail !workload
    (r.detail
    @ [ ("machine", machine ());
        ( "failures",
          Json.List
            (List.map (fun (op, why) -> Json.Obj [ ("op", Json.Str op); ("why", Json.Str why) ]) r.failures) ) ]);
  (* Every workload computes every end-to-end metric; a layer it does
     not exercise reads 0. *)
  let value values default n =
    match List.assoc_opt n values with
    | Some v -> v
    | None -> default n
  in
  let missing n = failwith ("no value for end-to-end metric " ^ n) in
  let metrics, lookup =
    if trace then (per_layer, value r.layers (fun _ -> 0.)) else (end_to_end, value r.e2e missing)
  in
  print_result ~correct:(r.wrong = 0) ~attempted:r.attempted ~failed:(List.length r.failures)
    (List.map (fun (n, u) -> (n, lookup n, u)) metrics)
