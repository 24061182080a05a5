(* The archived BENCH_*.json reports at the repository root, pushed
   through the schema table `stenso report` dispatches on
   ({!Suite.Driver.check_report}), plus one tampered copy per named
   invariant. *)

module Json = Stenso.Telemetry.Json

(* The archives sit at the project root; dune copies them next to the
   test directory (see the [deps] of this test). *)
let archive_dir = Filename.concat (Filename.dirname Sys.executable_name) ".."

let archives () =
  Sys.readdir archive_dir |> Array.to_list
  |> List.filter (fun f ->
         String.starts_with ~prefix:"BENCH_" f
         && Filename.check_suffix f ".json")
  |> List.sort compare

let load name =
  let ic = open_in_bin (Filename.concat archive_dir name) in
  let s =
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  match Json.of_string s with
  | Ok j -> j
  | Error e -> Alcotest.failf "%s: invalid JSON: %s" name e

let check = Suite.Driver.check_report

(* Rewrite the value at [path] (object keys, or list indices written as
   decimal strings); [f None] adds a missing key, [f _ = None] drops
   it. *)
let rec update path f (j : Json.t) : Json.t =
  match (path, j) with
  | [], _ -> Option.get (f (Some j))
  | [ k ], Json.Obj kvs ->
      let kept =
        List.filter_map
          (fun (k', v) ->
            if k' <> k then Some (k', v)
            else Option.map (fun v -> (k, v)) (f (Some v)))
          kvs
      in
      if List.mem_assoc k kvs then Json.Obj kept
      else
        let added = Option.map (fun v -> (k, v)) (f None) in
        Json.Obj (kvs @ Option.to_list added)
  | k :: rest, Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k', v) -> if k' = k then (k', update rest f v) else (k', v))
           kvs)
  | k :: rest, Json.List xs ->
      let i = int_of_string k in
      Json.List
        (List.mapi (fun i' v -> if i' = i then update rest f v else v) xs)
  | _ -> Alcotest.failf "no path %s" (String.concat "." path)

let set path v = update path (fun _ -> Some v)
let drop path = update path (fun _ -> None)

let bump path =
  update path (function
    | Some (Json.Int n) -> Some (Json.Int (n + 1))
    | _ -> Alcotest.failf "not an int: %s" (String.concat "." path))

let expect_ok ?min_speedup ?min_success what doc =
  match check ?min_speedup ?min_success doc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "%s: rejected: %s" what e

let expect_error ?min_speedup ?min_success what doc =
  match check ?min_speedup ?min_success doc with
  | Error _ -> ()
  | Ok _ -> Alcotest.failf "%s: accepted" what

(* The summaries `stenso report` prints for the archives, verbatim. *)
let summaries =
  [
    ( "BENCH_exec_vm.json",
      "valid stenso.exec-bench/1 (14 benchmarks, 5.65x geomean, options \
       fus=true;red=true;tile=64;dom=1)" );
    ( "BENCH_lift.json",
      "valid stenso.lift/1 (8 kernels, 8 lifted, 100% success)" );
    ( "BENCH_mlsuite.json",
      "valid stenso.mlsuite/1 (9 kernels, 6.94x VM geomean; tiers: 502.7x \
       warm speedup, 0 cost mismatches)" );
    ( "BENCH_serve_load.json",
      "valid stenso.serve-load/1 (256 connections, 40406 requests, 3971 \
       req/s; p50 62.85 ms, p95 86.14, p99 147.17; 40 coalesced, 40406 \
       refined, 0 busy, 0 protocol errors)" );
    ( "BENCH_suite_flops.json",
      "valid stenso.suite-report/1 (flops estimator, 33 benchmarks, 23 \
       improved)" );
    ( "BENCH_tiers.json",
      "valid stenso.tiers/1 (flops estimator, depth 2, 33 benchmarks; cold \
       0/21/12 (64% without search); warm 33/0/0 (100% without search); \
       12586.3x warm speedup, 1 cost mismatches)" );
  ]

let test_archives_validate () =
  Alcotest.(check (list string)) "one archive per schema"
    (List.map fst summaries) (archives ());
  List.iter
    (fun (f, summary) ->
      match check (load f) with
      | Ok s -> Alcotest.(check string) f summary s
      | Error e -> Alcotest.failf "%s: rejected: %s" f e)
    summaries

let test_suite_invariants () =
  let doc = load "BENCH_suite_flops.json" in
  expect_error "n_benchmarks = length" (bump [ "n_benchmarks" ] doc);
  expect_error "missing field" (drop [ "estimator" ] doc);
  expect_error "mistyped nested field"
    (set [ "benchmarks"; "0"; "search"; "nodes" ] (Json.Str "x") doc);
  expect_error "malformed bound trajectory"
    (set
       [ "benchmarks"; "0"; "bound_trajectory" ]
       (Json.List [ Json.List [ Json.Float 1. ] ])
       doc);
  expect_error "wrong schema tag"
    (set [ "schema" ] (Json.Str "stenso.suite-report/0") doc);
  (* [version] and [tier] postdate the archive: optional, but typed. *)
  expect_ok "version present" (set [ "version" ] (Json.Str "1") doc);
  expect_error "version mistyped" (set [ "version" ] (Json.Int 1) doc);
  expect_ok "tier present"
    (set [ "benchmarks"; "0"; "tier" ] (Json.Int 3) doc);
  expect_error "tier mistyped"
    (set [ "benchmarks"; "0"; "tier" ] (Json.Str "3") doc)

let test_exec_invariants () =
  let doc = load "BENCH_exec_vm.json" in
  expect_ok ~min_speedup:1.0 "floor met" doc;
  expect_error "n_benchmarks = length" (bump [ "n_benchmarks" ] doc);
  expect_error ~min_speedup:1e9 "min-speedup floor" doc;
  let fused_idx =
    match Json.member "results" doc with
    | Some (Json.List rs) ->
        let rec find i = function
          | r :: rest ->
              if
                Json.member "expects_fused_reduction" r
                = Some (Json.Bool true)
              then i
              else find (i + 1) rest
          | [] -> Alcotest.fail "no fused-reduction benchmark archived"
        in
        find 0 rs
    | _ -> Alcotest.fail "no results"
  in
  expect_error "fused reduction ops_fused > 0"
    (set
       [ "results"; string_of_int fused_idx; "ops_fused" ]
       (Json.Int 0) doc)

let test_tiers_invariants () =
  let doc = load "BENCH_tiers.json" in
  expect_error "n_benchmarks = length" (bump [ "n_benchmarks" ] doc);
  expect_error "pass counts present" (drop [ "cold"; "tier1" ] doc);
  expect_error "version required" (drop [ "version" ] doc)

let test_mlsuite_invariants () =
  let doc = load "BENCH_mlsuite.json" in
  expect_ok ~min_speedup:1.0 "floor met" doc;
  expect_error ~min_speedup:1e9 "min-speedup floor (exec half)" doc;
  expect_error "exec n_benchmarks = length"
    (bump [ "exec"; "n_benchmarks" ] doc);
  expect_error "tiers n_benchmarks = length"
    (bump [ "tiers"; "n_benchmarks" ] doc);
  expect_error "fused reduction ops_fused > 0"
    (set [ "exec"; "results"; "0"; "ops_fused" ] (Json.Int 0) doc);
  expect_error "embedded schema tag"
    (set [ "tiers"; "schema" ] (Json.Str "stenso.tiers/0") doc);
  expect_error "missing half" (drop [ "tiers" ] doc)

let test_serve_load_invariants () =
  let doc = load "BENCH_serve_load.json" in
  let p name v = set [ "latency"; name ] (Json.Float v) doc in
  expect_error "p50 <= p95" (p "p50" 1e9);
  expect_error "p95 <= p99" (p "p99" 0.);
  expect_error "per-tier p50 <= p95"
    (set [ "tiers"; "0"; "p50" ] (Json.Float 1e9) doc);
  expect_error "per-tier counts sum to n_ok" (bump [ "tiers"; "0"; "n" ] doc);
  expect_error "n_requests = ok + busy + protocol errors"
    (bump [ "n_requests" ] doc);
  expect_error "coalesced <= n_ok"
    (set [ "n_coalesced" ] (Json.Int max_int) doc);
  expect_error "endpoints non-empty" (set [ "endpoints" ] (Json.List []) doc);
  expect_error "benchmarks are strings"
    (set [ "benchmarks" ] (Json.List [ Json.Int 1 ]) doc)

let test_lift_invariants () =
  let doc = load "BENCH_lift.json" in
  expect_ok ~min_success:1.0 "floor met" doc;
  expect_error "n_kernels = length" (bump [ "n_kernels" ] doc);
  expect_error "n_lifted agrees with the kernels"
    (set [ "n_lifted" ] (Json.Int 7) doc);
  expect_error "success_rate agrees with n_lifted"
    (set [ "success_rate" ] (Json.Float 0.5) doc);
  expect_error "lifted kernel carries a program"
    (set [ "kernels"; "0"; "program" ] (Json.Str "") doc);
  expect_error "lifted kernel was certified"
    (set [ "kernels"; "0"; "certified" ] (Json.Int 0) doc);
  expect_ok "speedup is optional" (drop [ "kernels"; "0"; "speedup" ] doc);
  expect_error "speedup typed when present"
    (set [ "kernels"; "0"; "speedup" ] (Json.Str "fast") doc);
  (* one failed kernel, counts and rate updated consistently *)
  let failed =
    doc
    |> set [ "kernels"; "0"; "lifted" ] (Json.Bool false)
    |> set [ "kernels"; "0"; "program" ] (Json.Str "")
    |> set [ "n_lifted" ] (Json.Int 7)
    |> set [ "success_rate" ] (Json.Float (7. /. 8.))
  in
  expect_ok "consistent failure" failed;
  expect_error ~min_success:1.0 "min-success floor" failed;
  expect_error "failed kernel carries no program"
    (set [ "kernels"; "0"; "program" ] (Json.Str "x") failed)

(* `stenso report` itself: exit status and the table-derived
   messages for an unknown schema and for a gate the format refuses. *)
let cli = Filename.concat archive_dir "bin/stenso_cli.exe"

let run_report args =
  let err = Filename.temp_file "stenso-report" ".err" in
  let code =
    Sys.command
      (Filename.quote_command cli ~stdout:Filename.null ~stderr:err
         ("report" :: args))
  in
  let ic = open_in_bin err in
  let msg = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove err;
  (code, String.trim msg)

let archive f = Filename.concat archive_dir f

let test_unknown_schema () =
  expect_error "unknown schema"
    (Json.Obj [ ("schema", Json.Str "stenso.bogus/9") ]);
  expect_error "no schema" (Json.Obj []);
  let file = Filename.temp_file "stenso-bogus" ".json" in
  let oc = open_out file in
  output_string oc {|{"schema":"stenso.bogus/9"}|};
  close_out oc;
  let code, msg = run_report [ file ] in
  Sys.remove file;
  Alcotest.(check int) "exit status" 1 code;
  Alcotest.(check string) "message names the known schemas"
    (Printf.sprintf
       "stenso: %s: unknown schema \"stenso.bogus/9\"; known schemas: \
        stenso.suite-report/1, stenso.exec-bench/1, stenso.tiers/1, \
        stenso.mlsuite/1, stenso.serve-load/1, stenso.lift/1"
       file)
    msg

let test_refused_gates () =
  let code, msg =
    run_report [ archive "BENCH_tiers.json"; "--min-speedup"; "1.0" ]
  in
  Alcotest.(check int) "--min-speedup on tiers: exit status" 1 code;
  Alcotest.(check string) "--min-speedup names every accepting schema"
    (Printf.sprintf
       "stenso: %s: --min-speedup only applies to stenso.exec-bench/1 and \
        stenso.mlsuite/1 reports"
       (archive "BENCH_tiers.json"))
    msg;
  let code, msg =
    run_report [ archive "BENCH_exec_vm.json"; "--min-success"; "1.0" ]
  in
  Alcotest.(check int) "--min-success on exec-bench: exit status" 1 code;
  Alcotest.(check string) "--min-success names the lift schema"
    (Printf.sprintf
       "stenso: %s: --min-success only applies to stenso.lift/1 reports"
       (archive "BENCH_exec_vm.json"))
    msg;
  let code, _ =
    run_report [ archive "BENCH_mlsuite.json"; "--min-speedup"; "1.0" ]
  in
  Alcotest.(check int) "--min-speedup on mlsuite is accepted" 0 code

let suite =
  [
    Alcotest.test_case "archived reports validate" `Quick
      test_archives_validate;
    Alcotest.test_case "suite-report invariants" `Quick test_suite_invariants;
    Alcotest.test_case "exec-bench invariants" `Quick test_exec_invariants;
    Alcotest.test_case "tiers invariants" `Quick test_tiers_invariants;
    Alcotest.test_case "mlsuite invariants" `Quick test_mlsuite_invariants;
    Alcotest.test_case "serve-load invariants" `Quick
      test_serve_load_invariants;
    Alcotest.test_case "lift invariants" `Quick test_lift_invariants;
    Alcotest.test_case "unknown schema" `Quick test_unknown_schema;
    Alcotest.test_case "refused gates" `Quick test_refused_gates;
  ]
