(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Tables I-II, Figures 4-8), plus the Section VII-D rule
   extraction, the DESIGN.md ablations, and real wall-clock Bechamel
   kernels on the tensor substrate.

     dune exec bench/main.exe                 # everything (short budgets)
     dune exec bench/main.exe -- fig5 --full  # one section, paper budgets

   Shapes of the reproduction: absolute numbers come from simulated
   frameworks on analytic platform profiles (see lib/frameworks and
   DESIGN.md); the comparative structure — who wins, by what ballpark
   factor — is the reproduction target. *)

module Ast = Dsl.Ast
module B = Suite.Benchmarks
module Fw = Frameworks.Framework
module Pf = Frameworks.Platform

(* Artifact-parity output: like the paper artifact's `out/` directory,
   `--out DIR` additionally writes fig*.csv data files and the
   synthesized programs. *)
let out_dir : string option ref = ref None

(* `--jobs N`: size of the domain pool the synthesis phase fans the
   benchmarks across (per-benchmark results are identical for any N). *)
let jobs = ref 1

(* `--report FILE`: write the synthesis phase as a stenso.suite-report/1
   JSON document (same schema as `stenso suite --report`), for archiving
   as a BENCH_*.json performance-trajectory point.  The `vm` section
   instead writes a stenso.exec-bench/1 document to the same path. *)
let report_file : string option ref = ref None

(* `--engine NAME`: execution engine behind the measured cost model of
   the synthesis phase (vm | interp). *)
let engine : Stenso.Exec.kind ref = ref `Vm

(* `--exec-domains N` / `--exec-tile N` / `--exec-no-fusion` /
   `--exec-no-reduction-fusion`: planner and VM knobs, applied both to
   the measured cost model's timing runs and to the `vm` section. *)
let exec_opts : Stenso.Exec.Options.t ref = ref Stenso.Exec.Options.default

let emit_file rel contents =
  match !out_dir with
  | None -> ()
  | Some dir ->
      let path = Filename.concat dir rel in
      let parent = Filename.dirname path in
      if not (Sys.file_exists parent) then Sys.mkdir parent 0o755;
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () -> output_string oc contents)

let emit_csv name header rows =
  emit_file (name ^ ".csv")
    (String.concat "\n" (String.concat "," header :: List.map (String.concat ",") rows)
    ^ "\n")

let section_line = String.make 78 '='
let subline = String.make 78 '-'

let header title =
  Printf.printf "\n%s\n%s\n%s\n" section_line title section_line

let geomean xs =
  match xs with
  | [] -> nan
  | _ ->
      exp
        (List.fold_left (fun acc x -> acc +. Stdlib.log x) 0. xs
        /. float_of_int (List.length xs))

let bar width v vmax =
  let n =
    int_of_float (Float.round (float_of_int width *. v /. Float.max vmax 1e-9))
  in
  String.make (max 0 (min width n)) '#'

(* ------------------------------------------------------------------ *)
(* Synthesis results, computed once and shared by all sections         *)
(* ------------------------------------------------------------------ *)

type synthesis = {
  bench : B.t;
  outcome : Stenso.Superopt.outcome;
  opt_perf : Ast.t;  (** optimized program usable at perf shapes *)
}

let model =
  lazy (Cost.Model.measured ~engine:!engine ~exec_options:!exec_opts ())

let synthesize_all () =
  Printf.printf
    "Synthesizing all %d benchmarks (measured cost model, %d jobs)...\n%!"
    (List.length B.all) !jobs;
  let on_result (r : Suite.Driver.bench_result) =
    Printf.printf "  %-16s %5.1fs  %s\n%!" r.bench.name r.elapsed
      (if r.outcome.improved then Ast.to_string r.outcome.optimized
       else "(no cheaper variant)")
  in
  let ({ Suite.Driver.results; _ } as run_result) =
    Suite.Driver.run ~model:(Lazy.force model) ~jobs:!jobs
      ~trace:(Option.is_some !report_file) ~on_result B.all
  in
  (match !report_file with
  | Some path ->
      let doc = Suite.Driver.report run_result in
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (Stenso.Telemetry.Json.to_string doc);
          output_char oc '\n');
      Printf.printf "  wrote suite report to %s\n%!" path
  | None -> ());
  List.map
    (fun ({ Suite.Driver.bench = b; outcome; _ } : Suite.Driver.bench_result)
       ->
      let opt_perf =
        (* The synthesized program carries no shape attributes for our
           benchmarks, so it normally retypes directly at perf shapes. *)
        if Dsl.Types.well_typed b.perf_env outcome.optimized then
          outcome.optimized
        else b.perf_expected_opt
      in
      let rendered =
        String.concat ""
          (List.map
             (fun (name, (vt : Dsl.Types.vt)) ->
               Printf.sprintf "input %s : %s[%s]\n" name
                 (match vt.dtype with
                 | Dsl.Types.Float -> "f32"
                 | Dsl.Types.Bool -> "bool")
                 (String.concat ", "
                    (Array.to_list (Array.map string_of_int vt.shape))))
             b.env)
        ^ Format.asprintf "return %a\n" Ast.pp outcome.optimized
      in
      emit_file
        (Filename.concat "benchmarks_synthesized" (b.name ^ ".tdsl"))
        rendered;
      { bench = b; outcome; opt_perf })
    results

(* ------------------------------------------------------------------ *)
(* Tables I and II                                                     *)
(* ------------------------------------------------------------------ *)

let tables results =
  header "Table I: GitHub benchmarks";
  Printf.printf "%-16s %-24s %-26s %s\n" "Benchmark" "Domain" "Class"
    "Original implementation";
  Printf.printf "%s\n" subline;
  List.iter
    (fun { bench = b; _ } ->
      if b.source = `Github then
        Printf.printf "%-16s %-24s %-26s %s\n" b.name b.domain
          (B.klass_name b.klass)
          (Ast.to_string b.program))
    results;
  header "Table II: synthetic benchmarks";
  Printf.printf "%-16s %s\n" "Benchmark" "Original implementation";
  Printf.printf "%s\n" subline;
  List.iter
    (fun { bench = b; _ } ->
      if b.source = `Synthetic then
        Printf.printf "%-16s %s\n" b.name (Ast.to_string b.program))
    results;
  header "Synthesized programs";
  List.iter
    (fun { bench = b; outcome; _ } ->
      Printf.printf "%-16s %s\n" b.name
        (if outcome.improved then Ast.to_string outcome.optimized
         else "(kept original)"))
    results

(* ------------------------------------------------------------------ *)
(* Speedups under the framework simulators                             *)
(* ------------------------------------------------------------------ *)

let speedup_of fw pf (r : synthesis) =
  Fw.speedup fw pf r.bench.perf_env ~original:r.bench.perf_program
    ~optimized:r.opt_perf

let fig4 results =
  header
    "Figure 4: geometric-mean speedup of STENSO-optimized programs\n\
     (per framework x platform; paper: NumPy ~3.8x, JAX 1.5-1.9x, \
     PyTorch 1.2-1.6x)";
  Printf.printf "%-10s" "";
  List.iter (fun (p : Pf.t) -> Printf.printf "%16s" p.name) Pf.all;
  print_newline ();
  Printf.printf "%s\n" subline;
  let rows = ref [] in
  List.iter
    (fun (fw : Fw.t) ->
      Printf.printf "%-10s" fw.name;
      List.iter
        (fun (pf : Pf.t) ->
          let g = geomean (List.map (speedup_of fw pf) results) in
          rows := [ fw.name; pf.name; Printf.sprintf "%.4f" g ] :: !rows;
          Printf.printf "%15.2fx" g)
        Pf.all;
      print_newline ())
    Fw.all;
  emit_csv "fig4" [ "framework"; "platform"; "geomean_speedup" ]
    (List.rev !rows)

let fig7 results =
  header
    "Figure 7: geometric-mean speedup per transformation class (AMD platform)\n\
     (paper: Vectorization ~10.7x NumPy; Identity Replacement ~6.1x NumPy)";
  Printf.printf "%-26s" "Class";
  List.iter (fun (fw : Fw.t) -> Printf.printf "%12s" fw.name) Fw.all;
  print_newline ();
  Printf.printf "%s\n" subline;
  List.iter
    (fun klass ->
      let members =
        List.filter (fun r -> r.bench.B.klass = klass) results
      in
      Printf.printf "%-26s" (B.klass_name klass);
      List.iter
        (fun fw ->
          let g =
            geomean (List.map (speedup_of fw Pf.amd_7950x) members)
          in
          Printf.printf "%11.2fx" g)
        Fw.all;
      Printf.printf "   (%d benchmarks)\n" (List.length members))
    B.all_klasses

let fig8 results =
  header "Figure 8: per-benchmark speedups by class (AMD platform)";
  Printf.printf "%-26s %-16s %8s %8s %8s\n" "Class" "Benchmark" "NumPy"
    "JAX" "PyTorch";
  Printf.printf "%s\n" subline;
  let rows = ref [] in
  List.iter
    (fun klass ->
      List.iter
        (fun r ->
          if r.bench.B.klass = klass then begin
            let s fw = speedup_of fw Pf.amd_7950x r in
            rows :=
              [ B.klass_name klass; r.bench.name;
                Printf.sprintf "%.4f" (s Fw.numpy);
                Printf.sprintf "%.4f" (s Fw.jax);
                Printf.sprintf "%.4f" (s Fw.torch_inductor) ]
              :: !rows;
            Printf.printf "%-26s %-16s %7.2fx %7.2fx %7.2fx  %s\n"
              (B.klass_name klass) r.bench.name (s Fw.numpy) (s Fw.jax)
              (s Fw.torch_inductor)
              (bar 20 (Stdlib.log (Float.max 1. (s Fw.numpy)))
                 (Stdlib.log 25.))
          end)
        results)
    B.all_klasses;
  emit_csv "fig8"
    [ "class"; "benchmark"; "numpy"; "jax"; "pytorch" ]
    (List.rev !rows)

let fig6 results =
  header
    "Figure 6: number of benchmarks per transformation class\n\
     (paper: Algebraic Simplification 9, Strength Reduction 8)";
  Printf.printf "%-28s %6s %6s\n" "Class" "paper" "auto";
  Printf.printf "%s\n" subline;
  List.iter
    (fun klass ->
      let labelled =
        List.length (List.filter (fun r -> r.bench.B.klass = klass) results)
      in
      let auto =
        List.length
          (List.filter
             (fun r ->
               r.outcome.improved
               && Stenso.Classify.klass_name
                    (Stenso.Classify.classify ~original:r.bench.program
                       ~optimized:r.outcome.optimized)
                  = B.klass_name klass)
             results)
      in
      Printf.printf "%-28s %6d %6d  %s\n" (B.klass_name klass) labelled auto
        (bar 30 (float_of_int labelled) 9.))
    B.all_klasses;
  Printf.printf
    "('auto' = this repo's structural classifier on improved benchmarks)\n"

(* ------------------------------------------------------------------ *)
(* Figure 5: synthesis times                                           *)
(* ------------------------------------------------------------------ *)

let fig5 ~full () =
  let timeout = if full then 600. else 30. in
  let bu_budget = if full then 600_000 else 40_000 in
  header
    (Printf.sprintf
       "Figure 5: synthesis times (timeout %.0fs%s)\n\
        columns: simplification-only | simplification+B&B | bottom-up \
        baseline (TASO-style)"
       timeout
       (if full then "" else "; pass --full for the paper's 600 s"));
  Printf.printf "%-16s %12s %12s %16s\n" "Benchmark" "simp-only" "simp+bnb"
    "bottom-up";
  Printf.printf "%s\n" subline;
  let fmt_time t timed_out =
    if timed_out then "timeout" else Printf.sprintf "%.2fs" t
  in
  let totals = ref (0., 0., 0) in
  List.iter
    (fun (b : B.t) ->
      let model = Lazy.force model in
      let run use_bnb =
        let config =
          { Stenso.Search.default_config with use_bnb; timeout }
        in
        let spec = Dsl.Sexec.exec_env b.env b.program in
        let bound = Cost.Model.program_cost model b.env b.program in
        Stenso.Search.run ~config ~model ~env:b.env ~spec
          ~initial_bound:bound
          ~consts:(Stenso.Superopt.consts_of b.program)
          ()
      in
      let simp_only = run false in
      let with_bnb = run true in
      let bu =
        Stenso.Bottom_up.run ~max_depth:3 ~max_programs:bu_budget ~timeout
          ~model ~env:b.env b.program
      in
      let st, bt, gave = !totals in
      totals :=
        ( st +. simp_only.stats.elapsed,
          bt +. with_bnb.stats.elapsed,
          gave + if bu.gave_up then 1 else 0 );
      Printf.printf "%-16s %12s %12s %16s\n" b.name
        (fmt_time simp_only.stats.elapsed simp_only.stats.timed_out)
        (fmt_time with_bnb.stats.elapsed with_bnb.stats.timed_out)
        (match (bu.program, bu.gave_up) with
        | Some _, true ->
            Printf.sprintf "partial (%dk)" (bu.enumerated / 1000)
        | Some _, false ->
            Printf.sprintf "%.2fs (%dk)" bu.elapsed (bu.enumerated / 1000)
        | None, _ -> Printf.sprintf "gave up (%dk)" (bu.enumerated / 1000)))
    B.all;
  let st, bt, gave = !totals in
  Printf.printf "%s\n" subline;
  Printf.printf "%-16s %11.1fs %11.1fs %13d/33 gave up\n" "total" st bt gave

(* ------------------------------------------------------------------ *)
(* Section VII-D: rewrite rules                                        *)
(* ------------------------------------------------------------------ *)

let rules results =
  header "Section VII-D: rewrite rules generalized from discoveries";
  List.iter
    (fun { bench = b; outcome; _ } ->
      if outcome.improved then
        let rule = Stenso.Rules.generalize b.program outcome.optimized in
        Printf.printf "%-16s %s\n" b.name (Stenso.Rules.to_string rule))
    results

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md section 5)                                     *)
(* ------------------------------------------------------------------ *)

let ablations () =
  header "Ablations: sketch depth, cost model, simplification pruning";
  let sample =
    [ "diag_dot"; "vec_lerp"; "common_factor"; "sum_stack"; "synth_2" ]
  in
  let model = Lazy.force model in
  let run b config =
    let t0 = Unix.gettimeofday () in
    let o = Stenso.Superopt.superoptimize ~config ~model ~env:b.B.env b.B.program in
    (o, Unix.gettimeofday () -. t0)
  in
  Printf.printf "%-16s %-22s %9s %8s %8s\n" "Benchmark" "configuration"
    "improved" "nodes" "time";
  Printf.printf "%s\n" subline;
  List.iter
    (fun name ->
      let b = B.find name in
      let base = Stenso.Search.default_config in
      let variants =
        [
          ("default (d=2, simp+bnb)", base);
          ( "depth d=1",
            { base with stub_config = { base.stub_config with depth = 1 } } );
          ("no simplification prune", { base with use_simplification = false;
                                        timeout = 20. });
          ("flops cost model", base);
        ]
      in
      List.iter
        (fun (label, config) ->
          let o, dt =
            if label = "flops cost model" then
              let t0 = Unix.gettimeofday () in
              let o =
                Stenso.Superopt.superoptimize ~config ~model:Cost.Model.flops
                  ~env:b.env b.program
              in
              (o, Unix.gettimeofday () -. t0)
            else run b config
          in
          Printf.printf "%-16s %-22s %9b %8d %7.2fs\n" b.name label
            o.improved o.search.stats.nodes dt)
        variants;
      Printf.printf "%s\n" subline)
    sample

(* ------------------------------------------------------------------ *)
(* Equality saturation with mined rules (Section VIII comparison)      *)
(* ------------------------------------------------------------------ *)

let egraph results =
  header
    "Equality saturation with STENSO-mined rules (TENSAT-style engine)\n\
     rules are mined from the GitHub half only, then applied everywhere:\n\
     synthetic benchmarks improve only where a mined rule transfers —\n\
     the rule-set limitation the paper argues (Section VIII)";
  (* Mine one rule per improved loop-free GitHub benchmark. *)
  let mined =
    List.filter_map
      (fun { bench = b; outcome; _ } ->
        if outcome.improved && b.source = `Github then
          match Stenso.Rules.generalize b.program outcome.optimized with
          | rule -> Some rule
          | exception _ -> None
        else None)
      results
  in
  Printf.printf "mined %d rules from the GitHub benchmarks\n\n"
    (List.length mined);
  Printf.printf "%-16s %8s %10s %10s %12s %12s\n" "Benchmark" "source"
    "apps" "nodes" "egraph-gain" "stenso-gain";
  Printf.printf "%s\n" subline;
  (* The deterministic roofline estimator prices layout operations too,
     keeping the gains finite for transpose-only programs. *)
  (* Work at performance shapes so data movement and contractions, not
     dispatch overhead, decide extraction. *)
  let model = Cost.Model.roofline () in
  List.iter
    (fun { bench = b; opt_perf; _ } ->
      let src = match b.source with `Github -> "github" | `Synthetic -> "synth" in
      match Stenso.Egraph.create b.perf_env with
      | g -> (
          match Stenso.Egraph.add g b.perf_program with
          | exception Stenso.Egraph.Unsupported _ ->
              Printf.printf "%-16s %8s %10s\n" b.name src "(loops)"
          | cls ->
              let st = Stenso.Egraph.saturate ~rules:mined g in
              let best = Stenso.Egraph.extract g ~model cls in
              let cost p = Cost.Model.program_cost model b.perf_env p in
              let orig_c = cost b.perf_program in
              let fmt g =
                if Float.is_finite g then Printf.sprintf "%.2fx" g
                else ">100x" (* the optimum is a bare input: zero ops *)
              in
              Printf.printf "%-16s %8s %10d %10d %12s %12s\n" b.name src
                st.applications st.nodes
                (fmt (orig_c /. cost best))
                (fmt (orig_c /. cost opt_perf)))
      | exception _ -> ())
    results

(* ------------------------------------------------------------------ *)
(* Extension suite: masking benchmarks                                 *)
(* ------------------------------------------------------------------ *)

let masking () =
  header
    "Extension suite: masking benchmarks (where/less/triu/tril)\n\
     — beyond the paper's tables; exercises the density term of the\n\
     simplification metric";
  let config =
    {
      Stenso.Search.default_config with
      stub_config =
        { Stenso.Search.default_config.stub_config with extended_ops = true };
    }
  in
  Printf.printf "%-16s %-34s %8s\n" "Benchmark" "synthesized" "NumPy";
  Printf.printf "%s\n" subline;
  List.iter
    (fun (b : B.t) ->
      let o =
        Stenso.Superopt.superoptimize ~config ~model:(Lazy.force model)
          ~env:b.env b.program
      in
      let opt_perf =
        if o.improved && Dsl.Types.well_typed b.perf_env o.optimized then
          o.optimized
        else b.perf_expected_opt
      in
      let s =
        Fw.speedup Fw.numpy Pf.amd_7950x b.perf_env
          ~original:b.perf_program ~optimized:opt_perf
      in
      Printf.printf "%-16s %-34s %7.2fx\n" b.name
        (if o.improved then Ast.to_string o.optimized else "(unimproved)")
        s)
    B.masking

(* ------------------------------------------------------------------ *)
(* Scalability: synthesis effort vs expression size (Section VII-E)    *)
(* ------------------------------------------------------------------ *)

let scaling () =
  header
    "Scalability: synthesis effort vs input expression size\n\
     (randomly generated programs; Section VII-E discusses this trade-off)";
  Printf.printf "%-6s %10s %10s %10s %12s\n" "ops" "time" "nodes"
    "library" "improved";
  Printf.printf "%s\n" subline;
  let model = Lazy.force model in
  List.iter
    (fun size ->
      let programs =
        Suite.Generator.generate_many
          { Suite.Generator.default with size; seed = 42 }
          5
      in
      let times = ref 0. and nodes = ref 0 and libs = ref 0 and impr = ref 0 in
      List.iter
        (fun (env, prog) ->
          let t0 = Unix.gettimeofday () in
          let o = Stenso.Superopt.superoptimize ~model ~env prog in
          times := !times +. (Unix.gettimeofday () -. t0);
          nodes := !nodes + o.search.stats.nodes;
          libs := !libs + o.search.stats.library_size;
          if o.improved then incr impr)
        programs;
      let n = List.length programs in
      Printf.printf "%-6d %9.2fs %10d %10d %9d/%d\n" size
        (!times /. float_of_int n)
        (!nodes / n) (!libs / n) !impr n)
    [ 2; 4; 6; 8 ]

(* ------------------------------------------------------------------ *)
(* Execution engines: interpreter vs compiled VM                       *)
(* ------------------------------------------------------------------ *)

(* Minimum of per-batch means with doubling batches — the same robust
   statistic the measured cost model uses. *)
let time_min ~budget f =
  f ();
  let best = ref infinity in
  let total = ref 0. and reps = ref 1 in
  while !total < budget do
    let batch = !reps in
    let t0 = Unix.gettimeofday () in
    for _ = 1 to batch do
      f ()
    done;
    let dt = Unix.gettimeofday () -. t0 in
    let per = dt /. float_of_int batch in
    if per < !best then best := per;
    total := !total +. dt;
    reps := !reps * 2
  done;
  !best

(* Third field: the program is reduction-rooted with an elementwise
   producer the planner is expected to inline ([ops_fused] > 0) — the CI
   smoke gate checks exactly these entries.  [normalize] and [max_rows]
   reduce a bare input, so there is nothing to fuse. *)
let exec_micro =
  [
    ( "saxpy",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return A * 1.5 + B",
      false );
    ( "lerp",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return A + (B - A) * 0.25",
      false );
    ( "dist",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return np.sqrt(A * A + B * B)",
      false );
    ( "clamp_mask",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return np.where(np.less(A, B), A, B)",
      false );
    ( "poly3",
      "input A : f32[256,256]\n\
       return A * A * A + A * A * 2.0 + A * 0.5 + 1.0",
      false );
    ( "row_scale",
      "input A : f32[256,256]\ninput S : f32[256]\nreturn A * S + A", false );
    ( "sum_prod",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return np.sum(A * B, 0)",
      true );
    ( "sum_all",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return np.sum(A + B)",
      true );
    ( "sum_sq", "input A : f32[256,256]\nreturn np.sum(A * A)", true );
    ( "normalize", "input A : f32[256,256]\nreturn A / np.sum(A)", false );
    ( "max_rows", "input A : f32[256,256]\nreturn np.max(A, 1)", false );
    ( "max_fused",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return np.max(A - B, 1)",
      true );
    ( "matmul",
      "input A : f32[256,256]\ninput B : f32[256,256]\n\
       return np.dot(A, B)",
      false );
    ( "transpose", "input A : f32[512,512]\nreturn A.T", false );
  ]

(* The interp-vs-VM measurement over typed entries, shared by the [vm]
   and [mlsuite] sections.  Prints one table row per entry as it is
   measured; [exec_footer] closes the table and returns the geomean. *)
let exec_table_header () =
  Printf.printf "%-14s %12s %12s %9s  %s\n" "Benchmark" "interp" "vm"
    "speedup" "plan (steps, fused, strips, reused, arena)";
  Printf.printf "%s\n" subline

let exec_measure ~budget ~options entries =
  List.map
    (fun (name, env, prog, expects_fused) ->
      ignore (Dsl.Types.infer env prog);
      let st = Random.State.make [| 0xe4ec |] in
      let inputs = Dsl.Interp.random_inputs st env in
      let lookup n = List.assoc n inputs in
      let compiled = Stenso.Exec.compile ~options ~env prog in
      let ti =
        time_min ~budget (fun () -> ignore (Dsl.Interp.eval_alist inputs prog))
      in
      let tv =
        time_min ~budget (fun () -> ignore (Stenso.Exec.run compiled lookup))
      in
      let s = Stenso.Exec.stats compiled in
      let speedup = ti /. tv in
      Printf.printf
        "%-14s %10.1fus %10.1fus %8.2fx  (%d, %d, %d, %d, %dB)\n" name
        (ti *. 1e6) (tv *. 1e6) speedup s.steps s.ops_fused s.parallel_strips
        s.buffers_reused s.arena_bytes;
      if expects_fused && s.ops_fused = 0 then
        Printf.printf
          "  WARNING: %s is reduction-rooted but nothing was fused\n" name;
      (name, ti, tv, speedup, s, expects_fused))
    entries

let exec_footer rows =
  let g = geomean (List.map (fun (_, _, _, s, _, _) -> s) rows) in
  Printf.printf "%s\n" subline;
  Printf.printf "%-14s %34.2fx geomean\n" "" g;
  g

let exec_csv name rows =
  emit_csv name
    [ "benchmark"; "interp_seconds"; "vm_seconds"; "speedup" ]
    (List.map
       (fun (name, ti, tv, s, _, _) ->
         [ name; Printf.sprintf "%.9g" ti; Printf.sprintf "%.9g" tv;
           Printf.sprintf "%.4f" s ])
       rows)

let exec_doc ~options ~geomean:g rows =
  Suite.Driver.exec_bench_report ~options ~geomean:g
    (List.map
       (fun (name, ti, tv, _, st, expects_fused) ->
         {
           Suite.Driver.exec_name = name;
           interp_seconds = ti;
           vm_seconds = tv;
           exec_stats = st;
           expects_fused_reduction = expects_fused;
         })
       rows)

let write_report ~label doc =
  match !report_file with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out_noerr oc)
        (fun () ->
          output_string oc (Stenso.Telemetry.Json.to_string doc);
          output_char oc '\n');
      Printf.printf "  wrote %s report to %s\n%!" label path

let exec_bench ~full () =
  header
    "Execution engines: tree-walking interpreter vs compiled VM\n\
     elementwise/reduction/contraction microbenchmarks; per-iteration\n\
     wall-clock, minimum of doubling batches";
  let budget = if full then 0.5 else 0.1 in
  let options = !exec_opts in
  Printf.printf "exec options: %s\n\n" (Stenso.Exec.Options.fingerprint options);
  exec_table_header ();
  let entries =
    List.map
      (fun (name, source, expects_fused) ->
        let env, prog = Dsl.Parser.program source in
        (name, env, prog, expects_fused))
      exec_micro
  in
  let rows = exec_measure ~budget ~options entries in
  let g = exec_footer rows in
  exec_csv "exec_vm" rows;
  write_report ~label:"exec-bench" (exec_doc ~options ~geomean:g rows)

(* ------------------------------------------------------------------ *)
(* ML-kernel workload tier: exec point + tiered-serving point          *)
(* ------------------------------------------------------------------ *)

let mlsuite ~full () =
  header
    "ML-kernel workload tier (softmax / layernorm / attention)\n\
     exec point: interp vs VM at performance shapes; tiers point:\n\
     mined depth-2 rules vs full search at synthesis shapes";
  let budget = if full then 0.5 else 0.1 in
  let options = !exec_opts in
  Printf.printf "exec options: %s\n\n" (Stenso.Exec.Options.fingerprint options);
  exec_table_header ();
  let entries =
    List.map
      (fun (b : B.t) ->
        (* attn_mix's elementwise producer feeds a contraction, not a
           reduction loop — the planner has nothing to inline there. *)
        (b.name, b.perf_env, b.perf_program, b.name <> "attn_mix"))
      B.ml
  in
  let rows = exec_measure ~budget ~options entries in
  let g = exec_footer rows in
  exec_csv "mlsuite_exec" rows;
  let exec = exec_doc ~options ~geomean:g rows in
  (* Tiered-serving point: mine the tier's environments at depth 2 into
     a scratch store, then run the same benchmarks three ways —
     baseline (full search, no store), cold (mined rules, empty outcome
     store), warm (the same requests again, now also hitting the
     outcome store). *)
  let config =
    Stenso.Config.default
    |> Stenso.Config.with_estimator `Flops
    |> Stenso.Config.with_timeout (if full then 30. else 10.)
    |> Stenso.Config.with_exec_options options
    |> Stenso.Config.with_rules_depth 2
  in
  let model = Stenso.Config.model config in
  let store_dir = Filename.temp_file "stenso-mlsuite" ".store" in
  Sys.remove store_dir;
  let store =
    Stenso.Store.open_store ~tel:Stenso.Telemetry.null ~dir:store_dir ()
  in
  Printf.printf "\nmining depth-2 rules over %d benchmark environments...\n%!"
    (List.length B.ml);
  let stats =
    Stenso.Mine.mine ~jobs:!jobs ~depth:2 ~model ~store
      (List.map (fun (b : B.t) -> (b.name, b.env)) B.ml)
  in
  List.iter
    (fun (s : Stenso.Mine.env_stats) ->
      Printf.printf "  %-16s %4d rules, %6d optima%s %6.1fs\n%!" s.label
        s.rules s.optima
        (if s.truncated then " (truncated)" else "")
        s.elapsed)
    stats;
  let pass name cfg store =
    Printf.printf "%s pass...\n%!" name;
    Suite.Driver.run ~config:cfg ~model ?store ~jobs:!jobs B.ml
  in
  let baseline =
    pass "baseline (full search)" (Stenso.Config.with_rules_depth 0 config)
      None
  in
  let cold = pass "tiered, cold" config (Some store) in
  let warm = pass "tiered, warm" config (Some store) in
  let tiers = Suite.Driver.tiers_report ~config ~baseline ~cold ~warm () in
  let doc = Suite.Driver.mlsuite_report ~exec ~tiers () in
  (match Suite.Driver.validate_mlsuite ~min_speedup:1.0 doc with
  | Ok () -> Printf.printf "mlsuite report valid (every kernel >= 1.0x)\n"
  | Error msg ->
      Printf.printf "  WARNING: mlsuite report failed validation: %s\n" msg);
  write_report ~label:"mlsuite" doc

(* ------------------------------------------------------------------ *)
(* Lifting front-end: success rate, lift time, end-to-end speedup      *)
(* ------------------------------------------------------------------ *)

let lift_bench ~full () =
  header
    "Lifting front-end: scalar loop nests -> certified DSL -> superoptimized\n\
     success rate and lift/verify time at synthesis shapes; end-to-end\n\
     speedup of the VM on the optimized lift vs the scalar loop\n\
     interpreter at performance shapes";
  let budget = if full then 0.5 else 0.1 in
  let options = !exec_opts in
  let config =
    Stenso.Config.default
    |> Stenso.Config.with_estimator `Flops
    |> Stenso.Config.with_exec_options options
  in
  let stub_cache = Stenso.Stub.Cache.create () in
  Printf.printf "%-16s %-6s %8s %10s %8s %8s %9s\n%s\n" "kernel" "lifted"
    "sketches" "pruned" "library" "lift s" "speedup" subline;
  let t0 = Unix.gettimeofday () in
  let entries =
    List.map
      (fun (k : Suite.Lifted.t) ->
        let kernel = Stenso.Lift.Loop_parser.kernel k.source in
        match Stenso.Lift.optimize ~config ~stub_cache kernel with
        | Error e ->
            Printf.printf "%-16s %-6s %s\n%!" k.name "NO"
              (Stenso.Lift.error_message e);
            let s =
              match e with
              | Stenso.Lift.Not_lifted s -> s
              | Stenso.Lift.Unsupported _ ->
                  {
                    Stenso.Lift.sketches = 0;
                    pruned_by_value = 0;
                    certified = 0;
                    library_size = 0;
                    lift_s = 0.;
                    verify_s = 0.;
                  }
            in
            {
              Suite.Driver.lift_name = k.name;
              lifted = false;
              lifted_program = "";
              optimized_program = "";
              lift_improved = false;
              lift_stats = s;
              lift_speedup = None;
            }
        | Ok (l, outcome) ->
            (* End-to-end point at performance shapes: the scalar loop
               interpreter running the kernel vs the VM running the
               tier's optimized form (the lift's program with the
               shape attributes rescaled), checked against each other
               on the measured inputs before timing. *)
            let b = B.find k.name in
            let perf_kernel = Stenso.Lift.Loop_parser.kernel k.perf_source in
            let st = Random.State.make [| 0x5eed |] in
            let inputs = Dsl.Interp.random_inputs st b.perf_env in
            let lookup n = List.assoc n inputs in
            let expected =
              Stenso.Lift.Loop_interp.run_tensors perf_kernel inputs
            in
            let compiled =
              Stenso.Exec.compile ~options ~env:b.perf_env b.perf_expected_opt
            in
            let got = Stenso.Exec.run compiled lookup in
            if
              not
                (Tensor.Ftensor.shape got = Tensor.Ftensor.shape expected
                && Tensor.Ftensor.allclose ~rtol:1e-6 ~atol:1e-9 got expected)
            then
              Printf.printf
                "  WARNING: %s: VM disagrees with the loop interpreter at \
                 performance shapes\n\
                 %!"
                k.name;
            let loop_s =
              time_min ~budget (fun () ->
                  ignore
                    (Stenso.Lift.Loop_interp.run_tensors perf_kernel inputs))
            in
            let vm_s =
              time_min ~budget (fun () -> ignore (Stenso.Exec.run compiled lookup))
            in
            let speedup = if vm_s > 0. then loop_s /. vm_s else 1. in
            Printf.printf "%-16s %-6s %8d %10d %8d %8.2f %8.1fx\n%!" k.name
              "yes" l.stats.sketches l.stats.pruned_by_value
              l.stats.library_size l.stats.lift_s speedup;
            {
              Suite.Driver.lift_name = k.name;
              lifted = true;
              lifted_program = Ast.to_string l.Stenso.Lift.prog;
              optimized_program =
                Ast.to_string outcome.Stenso.Superopt.optimized;
              lift_improved = outcome.Stenso.Superopt.improved;
              lift_stats = l.stats;
              lift_speedup = Some speedup;
            })
      Suite.Lifted.all
  in
  let n = List.length entries in
  let n_lifted =
    List.length (List.filter (fun e -> e.Suite.Driver.lifted) entries)
  in
  Printf.printf "%s\n%d/%d kernels lifted and certified\n" subline n_lifted n;
  emit_csv "lift"
    [ "name"; "lifted"; "sketches"; "pruned_by_value"; "library"; "lift_s";
      "verify_s"; "speedup" ]
    (List.map
       (fun (e : Suite.Driver.lift_entry) ->
         [
           e.lift_name;
           (if e.lifted then "1" else "0");
           string_of_int e.lift_stats.sketches;
           string_of_int e.lift_stats.pruned_by_value;
           string_of_int e.lift_stats.library_size;
           Printf.sprintf "%.4f" e.lift_stats.lift_s;
           Printf.sprintf "%.4f" e.lift_stats.verify_s;
           (match e.lift_speedup with
           | Some s -> Printf.sprintf "%.2f" s
           | None -> "");
         ])
       entries);
  let doc =
    Suite.Driver.lift_report ~config
      ~elapsed:(Unix.gettimeofday () -. t0)
      entries
  in
  (match Suite.Driver.validate_lift_report ~min_success:(7. /. 8.) doc with
  | Ok () -> Printf.printf "lift report valid (>= 7/8 kernels lifted)\n"
  | Error msg ->
      Printf.printf "  WARNING: lift report failed validation: %s\n" msg);
  write_report ~label:"lift" doc

(* ------------------------------------------------------------------ *)
(* Bechamel: real wall-clock on the tensor substrate                   *)
(* ------------------------------------------------------------------ *)

let bechamel results =
  header
    "Bechamel: wall-clock of original vs optimized kernels on this\n\
     machine's eager interpreter (one grouped Test.make per benchmark)";
  let open Bechamel in
  let open Toolkit in
  let selected =
    [ "diag_dot"; "mat_vec_prod"; "vec_lerp"; "power_neg"; "sum_stack";
      "trace_dot"; "synth_12" ]
  in
  let tests =
    List.filter_map
      (fun name ->
        match List.find_opt (fun r -> r.bench.B.name = name) results with
        | None -> None
        | Some r ->
            let st = Random.State.make [| 0xbeca |] in
            let inputs = Dsl.Interp.random_inputs st r.bench.perf_env in
            let run prog () = ignore (Dsl.Interp.eval_alist inputs prog) in
            Some
              (Test.make_grouped ~name
                 [
                   Test.make ~name:"original"
                     (Staged.stage (run r.bench.perf_program));
                   Test.make ~name:"stenso"
                     (Staged.stage (run r.opt_perf));
                 ]))
      selected
  in
  let test = Test.make_grouped ~name:"stenso" tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.4) ~kde:None
      ~stabilize:false ()
  in
  let raw = Benchmark.all cfg instances test in
  let results_tbl = Analyze.all ols Instance.monotonic_clock raw in
  (* Pair "<g>/original" with "<g>/stenso" rows. *)
  let time_of name =
    match Hashtbl.fold
            (fun k v acc -> if k = name then Some v else acc)
            results_tbl None
    with
    | Some est -> (
        match Analyze.OLS.estimates est with
        | Some [ t ] -> Some t
        | Some _ | None -> None)
    | None -> None
  in
  Printf.printf "%-16s %14s %14s %10s\n" "Benchmark" "original" "stenso"
    "speedup";
  Printf.printf "%s\n" subline;
  List.iter
    (fun name ->
      let o = time_of (Printf.sprintf "stenso/%s/original" name) in
      let s = time_of (Printf.sprintf "stenso/%s/stenso" name) in
      match (o, s) with
      | Some o, Some s ->
          Printf.printf "%-16s %12.1fus %12.1fus %9.2fx\n" name (o /. 1e3)
            (s /. 1e3) (o /. s)
      | _ -> Printf.printf "%-16s (no estimate)\n" name)
    selected

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let full = List.mem "--full" args in
  let rec strip_out acc = function
    | "--out" :: dir :: rest ->
        if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
        out_dir := Some dir;
        strip_out acc rest
    | "--jobs" :: n :: rest ->
        jobs := max 1 (int_of_string n);
        strip_out acc rest
    | "--report" :: path :: rest ->
        report_file := Some path;
        strip_out acc rest
    | "--engine" :: name :: rest ->
        (match Stenso.Exec.kind_of_string name with
        | Some k -> engine := k
        | None -> failwith ("unknown engine " ^ name));
        strip_out acc rest
    | "--exec-domains" :: n :: rest ->
        exec_opts :=
          Stenso.Exec.Options.with_domains (int_of_string n) !exec_opts;
        strip_out acc rest
    | "--exec-tile" :: n :: rest ->
        exec_opts := Stenso.Exec.Options.with_tile (int_of_string n) !exec_opts;
        strip_out acc rest
    | "--exec-no-fusion" :: rest ->
        exec_opts := Stenso.Exec.Options.with_fusion false !exec_opts;
        strip_out acc rest
    | "--exec-no-reduction-fusion" :: rest ->
        exec_opts :=
          Stenso.Exec.Options.with_reduction_fusion false !exec_opts;
        strip_out acc rest
    | a :: rest -> strip_out (a :: acc) rest
    | [] -> List.rev acc
  in
  let args = strip_out [] args in
  let sections = List.filter (fun a -> a <> "--full") args in
  let want s = sections = [] || List.mem s sections in
  let results =
    if
      List.exists want
        [ "tables"; "fig4"; "fig6"; "fig7"; "fig8"; "rules"; "egraph";
          "bechamel" ]
    then Some (synthesize_all ())
    else None
  in
  let need = Option.get in
  if want "tables" then tables (need results);
  if want "fig4" then fig4 (need results);
  if want "fig5" then fig5 ~full ();
  if want "fig6" then fig6 (need results);
  if want "fig7" then fig7 (need results);
  if want "fig8" then fig8 (need results);
  if want "rules" then rules (need results);
  if want "egraph" then egraph (need results);
  if want "ablation" then ablations ();
  if want "vm" then exec_bench ~full ();
  if want "mlsuite" then mlsuite ~full ();
  if want "lift" then lift_bench ~full ();
  if want "masking" then masking ();
  if want "scaling" then scaling ();
  if want "bechamel" then bechamel (need results)
