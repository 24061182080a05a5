(* Spans and counters recorded from the benchmark's own code, around
   its calls into each layer's public functions.  One trace per
   operation (so concurrent operations never share one); traces merge
   by summing.  A span records its duration under its name; a span
   nested in another is recorded the same way, and its total is
   subtracted from its parent's to give the parent's self time. *)

type t = {
  spans : (string, float list) Hashtbl.t;  (** per-call seconds *)
  counts : (string, float) Hashtbl.t;
  mutable wall : float;  (** wall time of the traced operations *)
}

let create () = { spans = Hashtbl.create 16; counts = Hashtbl.create 16; wall = 0. }

let record t name dt =
  Hashtbl.replace t.spans name
    (dt :: Option.value ~default:[] (Hashtbl.find_opt t.spans name))

let span t name f =
  let r, dt = Util.time f in
  record t name dt;
  r

let add t name x =
  Hashtbl.replace t.counts name
    (x +. Option.value ~default:0. (Hashtbl.find_opt t.counts name))

let count t name n = add t name (float_of_int n)

(* Time one traced operation: its wall time is the denominator of the
   unattributed share. *)
let op t f =
  let r, dt = Util.time f in
  t.wall <- t.wall +. dt;
  r

let merge ts =
  let m = create () in
  List.iter
    (fun t ->
      Hashtbl.iter (fun k v -> List.iter (record m k) (List.rev v)) t.spans;
      Hashtbl.iter (add m) t.counts;
      m.wall <- m.wall +. t.wall)
    ts;
  m

let samples t name = Option.value ~default:[] (Hashtbl.find_opt t.spans name)
let total t name = Util.sum (samples t name)
let counted t name = Option.value ~default:0. (Hashtbl.find_opt t.counts name)

(* Median of one span's per-call durations, in microseconds (0 when the
   layer was not exercised). *)
let median_us t name =
  match samples t name with [] -> 0. | xs -> Util.median xs *. 1e6

let ratio a b = if b > 0. then a /. b else 0.

(* Share of the traced operations' wall time not covered by any
   top-level span.  [children] are spans nested inside another recorded
   span; they are not counted twice. *)
let unattributed t ~children =
  let covered =
    Hashtbl.fold
      (fun name xs acc ->
        if List.mem name children then acc else acc +. Util.sum xs)
      t.spans 0.
  in
  if t.wall > 0. then 1. -. (covered /. t.wall) else 0.
