(* Shared pieces of the benchmark: clocks, order statistics, the
   machine stamp, peak memory, JSON output and the correctness oracle. *)

module Json = Stenso.Telemetry.Json
module Ast = Dsl.Ast
module F = Tensor.Ftensor

let now = Unix.gettimeofday

(* The smoke test's size: a few programs per workload instead of all. *)
let tiny = ref false

let sized xs = if !tiny then List.filteri (fun i _ -> i < 3) xs else xs

let time f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Order statistics                                                    *)
(* ------------------------------------------------------------------ *)

(* Nearest-rank percentile, [p] in [0, 100]. *)
let percentile p xs =
  match xs with
  | [] -> nan
  | _ ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
      a.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile 50. xs

let geomean = function
  | [] -> nan
  | xs ->
      exp
        (List.fold_left (fun acc x -> acc +. log x) 0. xs
        /. float_of_int (List.length xs))

let sum = List.fold_left ( +. ) 0.

(* The mean of the slowest tenth of [xs] (at least one sample): a tail
   that moves smoothly as samples come and go, where a single
   percentile can jump across a gap in the distribution. *)
let slowest_tenth_mean = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort (fun x y -> Float.compare y x) a;
      let k = max 1 (Array.length a / 10) in
      sum (Array.to_list (Array.sub a 0 k)) /. float_of_int k

(* The highest percentile of a fixed ladder that leaves at least ten
   samples beyond it. *)
let tail_level n =
  List.fold_left
    (fun best p ->
      if float_of_int n *. (1. -. (p /. 100.)) >= 10. then p else best)
    50. [ 75.; 90.; 99.; 99.9 ]

(* A latency summary: median, the percentile [p] and the sample count. *)
let summary ~scale ~p xs =
  let xs = List.map (fun x -> x *. scale) xs in
  Json.Obj
    [
      ("p50", Json.Float (median xs));
      (Printf.sprintf "p%g" p, Json.Float (percentile p xs));
      ("n", Json.Int (List.length xs));
    ]

(* ------------------------------------------------------------------ *)
(* Machine stamp and memory                                            *)
(* ------------------------------------------------------------------ *)

(* A fixed floating-point loop; its time lets points taken on different
   machines be compared. *)
let calibration_s () =
  let once () =
    snd
      (time (fun () ->
           let acc = ref 0. in
           for i = 1 to 20_000_000 do
             acc := !acc +. (1. /. float_of_int i)
           done;
           Sys.opaque_identity !acc))
  in
  median (List.init 5 (fun _ -> once ()))

(* A fixed walk over a 32 MB permutation, bound by memory latency: on a
   shared host it slows down with the neighbours' memory traffic even
   when the arithmetic loop above does not. *)
let calibration_mem_s () =
  let n = 1 lsl 22 in
  let st = Random.State.make [| 0xca1 |] in
  let next = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = next.(i) in
    next.(i) <- next.(j);
    next.(j) <- t
  done;
  let once () =
    snd
      (time (fun () ->
           let p = ref 0 in
           for _ = 1 to 500_000 do
             p := next.(!p)
           done;
           Sys.opaque_identity !p))
  in
  median (List.init 5 (fun _ -> once ()))

let machine () =
  Json.Obj
    [
      ("nproc", Json.Int (Domain.recommended_domain_count ()));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("calibration_s", Json.Float (calibration_s ()));
      ("calibration_mem_s", Json.Float (calibration_mem_s ()));
      ("stenso", Json.Str Stenso.Version.current);
    ]

(* Peak resident set size (VmHWM) of a process, in MB. *)
let peak_rss_mb pid =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> nan
  | text ->
      List.fold_left
        (fun acc line ->
          match String.split_on_char ':' line with
          | [ "VmHWM"; v ] ->
              Scanf.sscanf (String.trim v) "%d kB" (fun kb ->
                  float_of_int kb /. 1024.)
          | _ -> acc)
        nan
        (String.split_on_char '\n' text)

let self_rss_mb () = peak_rss_mb "self"

(* ------------------------------------------------------------------ *)
(* Correctness oracle                                                  *)
(* ------------------------------------------------------------------ *)

(* The oracle runs both sides on the tree-walking interpreter (or the
   loop interpreter for lifted kernels), never on the VM under test, on
   seeded draws.  Draws whose reference output is non-finite are outside
   the positive-value domain the rewrites hold on and are redrawn. *)
let oracle_draws = 6

let close a b =
  F.shape a = F.shape b
  && F.for_all2
       (fun x y -> Float.abs (x -. y) <= 1e-9 +. (1e-6 *. Float.abs y))
       a b

let finite t = F.fold (fun acc x -> acc && Float.is_finite x) true t

let agrees ~seed ~env ~reference candidate =
  let st = Random.State.make [| 0x0a11e; seed |] in
  let rec go ok effective draws =
    if (not ok) || effective >= oracle_draws || draws >= 64 then ok
    else
      let inputs = Dsl.Interp.random_inputs st env in
      let expected = reference inputs in
      if not (finite expected) then go ok effective (draws + 1)
      else
        let got =
          match Dsl.Interp.eval_alist inputs candidate with
          | t -> Some t
          | exception _ -> None
        in
        let ok = match got with Some t -> close expected t | None -> false in
        go ok (effective + 1) (draws + 1)
  in
  go true 0 0

let dsl_agrees ~seed ~env original candidate =
  agrees ~seed ~env
    ~reference:(fun inputs -> Dsl.Interp.eval_alist inputs original)
    candidate

let lift_agrees ~seed kernel candidate =
  agrees ~seed
    ~env:(Stenso.Lift.Loop_ast.dsl_env kernel)
    ~reference:(Stenso.Lift.Loop_interp.run_tensors kernel)
    candidate

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

(* What one workload run measured.  [failures] lists every failed
   operation by name with its reason; [wrong] counts the wrong or
   unverified answers among them. *)
type result = {
  e2e : (string * float) list;
  layers : (string * float) list;
  attempted : int;
  failures : (string * string) list;
  wrong : int;
  detail : (string * Json.t) list;
}

let gc_layers () =
  let s = Gc.quick_stat () in
  [
    ("gc.major_collections", float_of_int s.major_collections);
    ( "gc.top_heap_mb",
      float_of_int (s.top_heap_words * (Sys.word_size / 8)) /. 1048576. );
  ]

(* ------------------------------------------------------------------ *)
(* Output                                                              *)
(* ------------------------------------------------------------------ *)

let metric value unit = Json.Obj [ ("value", Json.Float value); ("unit", Json.Str unit) ]

(* The result line: the last line of standard output. *)
let print_result ~correct ~attempted ~failed metrics =
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool correct);
            ("attempted", Json.Int attempted);
            ("failed", Json.Int failed);
            ( "metrics",
              Json.Obj (List.map (fun (n, v, u) -> (n, metric v u)) metrics) );
          ]))

(* A detail line printed before the result line. *)
let print_detail name fields =
  print_endline (Json.to_string (Json.Obj (("detail", Json.Str name) :: fields)));
  flush stdout
