(* The serve-hit workload, against a [stenso serve] daemon on TCP.

   Set-up writes the 42 DSL programs' solved answers into a store
   directory and starts the daemon on it, so that every request for
   them is a tier-1 hit.  The load generator is one thread multiplexing 2
   connections with [select]: requests are sent on an open-loop schedule
   (seeded Poisson arrivals) whether or not earlier ones were answered,
   and each latency is timed from the request's due time, so a stall is
   charged to every request it delays.  How late the generator sent each
   request is reported beside the latencies.  A closed-loop phase then
   measures the rate the daemon sustains, and closed-loop passes over
   the 42 programs, sent side by side to this daemon and to a fresh one
   on the same store, measure its aging. *)

open Util
module S = Stenso

(* ------------------------------------------------------------------ *)
(* Daemon                                                              *)
(* ------------------------------------------------------------------ *)

type daemon = { pid : int; port : int }

let start_daemon ~cli ~dir ~name =
  let log = Filename.concat dir (name ^ ".log") in
  let fd = Unix.openfile log [ O_WRONLY; O_CREAT; O_TRUNC ] 0o644 in
  let args =
    [| cli; "serve"; "--tcp"; "127.0.0.1:0"; "--socket"; ""; "--store-dir";
       Filename.concat dir "store"; "--cost-estimator"; "flops"; "--workers";
       "2"; "--timeout"; Printf.sprintf "%g" Synth.timeout |]
  in
  let pid = Unix.create_process cli args Unix.stdin fd fd in
  Unix.close fd;
  let prefix = "listening on tcp://127.0.0.1:" in
  let rec wait tries =
    let text = In_channel.with_open_text log In_channel.input_all in
    let port =
      List.find_map
        (fun line ->
          if String.starts_with ~prefix line then
            int_of_string_opt
              (String.sub line (String.length prefix)
                 (String.length line - String.length prefix))
          else None)
        (String.split_on_char '\n' text)
    in
    match port with
    | Some port -> { pid; port }
    | None when tries > 0 ->
        Unix.sleepf 0.01;
        wait (tries - 1)
    | None ->
        Unix.kill pid Sys.sigkill;
        ignore (Unix.waitpid [] pid);
        failwith ("daemon did not start: " ^ text)
  in
  wait 3000

(* Stop the daemon and wait for it; returns its peak RSS in MB. *)
let stop_daemon d =
  let rss = peak_rss_mb (string_of_int d.pid) in
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  ignore (Unix.waitpid [] d.pid);
  rss

(* ------------------------------------------------------------------ *)
(* Load generator                                                      *)
(* ------------------------------------------------------------------ *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; sent : int Queue.t }

let connect port =
  let fd = Unix.socket PF_INET SOCK_STREAM 0 in
  Unix.connect fd (ADDR_INET (Unix.inet_addr_loopback, port));
  Unix.setsockopt fd TCP_NODELAY true;
  { fd; buf = Buffer.create 4096; sent = Queue.create () }

let close c = try Unix.close c.fd with Unix.Unix_error _ -> ()

type req = { due : float; conn : int; line : string; tag : int }
(** [tag] identifies the program within its workload. *)

type res = { mutable sent_at : float; mutable recv : float; mutable resp : string }

let rec write_all fd s off =
  if off < String.length s then
    write_all fd s (off + Unix.write_substring fd s off (String.length s - off))

let chunk = Bytes.create 65536

(* Read what is available on [c]; complete lines answer the oldest
   outstanding requests of that connection, in order. *)
let drain c results t =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> failwith "connection closed by the daemon"
  | n ->
      Buffer.add_subbytes c.buf chunk 0 n;
      let s = Buffer.contents c.buf in
      let rec lines start answered =
        match String.index_from_opt s start '\n' with
        | None -> (start, answered)
        | Some i ->
            let r = results.(Queue.pop c.sent) in
            r.recv <- t;
            r.resp <- String.sub s start (i - start);
            lines (i + 1) (answered + 1)
      in
      let rest, answered = lines 0 0 in
      Buffer.clear c.buf;
      Buffer.add_substring c.buf s rest (String.length s - rest);
      answered

(* How long [run] waits for responses after its last send. *)
let grace = 10.

(* Send each request at its due time and collect every response, until
   [grace] seconds after the last send.  Requests go out in due order
   per connection.  When [closed], the next request on a connection
   also waits for the previous response (a caller waiting for its
   reply); otherwise sending is open loop.  Nothing is sent after
   [until].  Unsent requests keep [sent_at = nan]. *)
let run ?(closed = false) ?(until = infinity) conns (reqs : req array) =
  let n = Array.length reqs in
  let results = Array.init n (fun _ -> { sent_at = nan; recv = nan; resp = "" }) in
  (* A closed loop may send until its stop time. *)
  let last_send =
    if closed && until < infinity then until
    else Array.fold_left (fun m r -> Float.max m (Float.min r.due until)) 0. reqs
  in
  let deadline = last_send +. grace in
  let pending =
    Array.mapi
      (fun k _ ->
        let q = Queue.create () in
        Array.iteri (fun i r -> if r.conn = k then Queue.push i q) reqs;
        q)
      conns
  in
  let outstanding = ref 0 in
  let sendable k =
    (not (Queue.is_empty pending.(k)))
    && (not (closed && not (Queue.is_empty conns.(k).sent)))
    && now () < until
  in
  let more () = Array.exists (fun k -> sendable k) (Array.init (Array.length conns) Fun.id) in
  let fds = Array.to_list (Array.map (fun c -> c.fd) conns) in
  while (more () || !outstanding > 0) && now () < deadline do
    Array.iteri
      (fun k c ->
        while sendable k && reqs.(Queue.peek pending.(k)).due <= now () do
          let i = Queue.pop pending.(k) in
          results.(i).sent_at <- now ();
          write_all c.fd reqs.(i).line 0;
          Queue.push i c.sent;
          incr outstanding
        done)
      conns;
    let wait =
      Array.fold_left Float.min 0.05
        (Array.mapi
           (fun k _ ->
             if sendable k then Float.max 0. (reqs.(Queue.peek pending.(k)).due -. now ())
             else 0.05)
           conns)
    in
    match Unix.select fds [] [] wait with
    | ready, _, _ ->
        let t = now () in
        Array.iter
          (fun c -> if List.mem c.fd ready then outstanding := !outstanding - drain c results t)
          conns
    | exception Unix.Unix_error (EINTR, _, _) -> ()
  done;
  results

(* ------------------------------------------------------------------ *)
(* Requests and responses                                              *)
(* ------------------------------------------------------------------ *)

let request_line id source =
  Json.to_string (Json.Obj [ ("id", Json.Int id); ("program", Json.Str source) ]) ^ "\n"

type reply = { ok : bool; cost_after : float; optimized : string; tier : int }

let parse_reply line =
  match Json.of_string line with
  | Error _ -> None
  | Ok j ->
      let field k f = Option.bind (Json.member k j) f in
      Some
        {
          ok = field "ok" Json.to_bool_opt = Some true;
          cost_after = Option.value ~default:nan (field "cost_after" Json.to_float_opt);
          optimized = Option.value ~default:"" (field "optimized" Json.to_string_opt);
          tier = Option.value ~default:0 (field "tier" Json.to_int_opt);
        }

(* The program table: the 42 DSL programs the store is filled with.
   The ml kernels come first so that the fill starts its longest
   syntheses early. *)
let hit_programs () =
  Array.of_list
    (List.map
       (fun (b : Suite.Benchmarks.t) -> (b, Dsl.Parser.unparse b.env b.program))
       (sized (Suite.Benchmarks.ml @ Suite.Benchmarks.all)))

(* The answers the store is filled with come from [solved.json] in this
   directory, written by [bench.exe --write-solved FILE] from a cold
   synthesis of the 42 programs, so that set-up does no synthesis.  The
   oracle checks every one of them in each run. *)
let write_solved path =
  let programs = hit_programs () in
  let stub_cache = S.Stub.Cache.create () in
  let answers =
    S.Par.map ~jobs:2
      (fun (b, _) -> Synth.run_one ~config:Synth.config ~stub_cache (Synth.Prog b))
      (Array.to_list programs)
  in
  let entry (a : Synth.answer) =
    match (Synth.check ~seed:0 a, a.optimized) with
    | None, Some opt ->
        Json.to_string
          (Json.Obj
             [ ("name", Json.Str (Synth.name a.input));
               ("optimized", Json.Str (Dsl.Parser.unparse a.env opt));
               ("cost_after", Json.Float a.cost_after) ])
    | Some why, _ -> failwith (Synth.name a.input ^ ": " ^ why)
    | None, None -> assert false
  in
  Out_channel.with_open_text path (fun oc ->
      output_string oc ("[\n" ^ String.concat ",\n" (List.map entry answers) ^ "\n]\n"))

(* Each program's solved answer, as an answer of the cold synthesis
   would report it. *)
let read_solved path programs =
  let entries =
    match Json.of_string (In_channel.with_open_text path In_channel.input_all) with
    | Ok j -> Option.value ~default:[] (Json.to_list_opt j)
    | Error e -> failwith (path ^ ": " ^ e)
  in
  let field k f e = Option.bind (Json.member k e) f in
  Array.map
    (fun ((b : Suite.Benchmarks.t), _) ->
      match List.find_opt (fun e -> field "name" Json.to_string_opt e = Some b.name) entries with
      | None -> failwith (path ^ " has no answer for " ^ b.name)
      | Some e ->
          let text = Option.get (field "optimized" Json.to_string_opt e) in
          let cost_before = Cost.Model.program_cost Synth.model b.env b.program in
          {
            Synth.input = Synth.Prog b;
            env = b.env;
            optimized = Some (snd (Dsl.Parser.program text));
            cost_before;
            cost_after = Option.get (field "cost_after" Json.to_float_opt e);
            tier = 3;
            latency = 0.;
            failure = None;
            search = None;
            lift = None;
          })
    programs

(* Record each answer under the key the daemon looks it up by. *)
let fill store (answers : Synth.answer array) =
  Array.iter
    (fun (a : Synth.answer) ->
      match (a.input, a.optimized) with
      | Synth.Prog b, Some opt ->
          let spec = Dsl.Sexec.exec_env b.env b.program in
          let key = S.Superopt.store_key ~config:Synth.config ~model:Synth.model ~env:b.env ~spec b.program in
          S.Store.record_outcome store ~key
            {
              S.Store.version = S.Version.current;
              original = Dsl.Parser.unparse b.env b.program;
              optimized = Dsl.Parser.unparse b.env opt;
              improved = a.cost_after < a.cost_before;
              original_cost = a.cost_before;
              optimized_cost = a.cost_after;
              stats = Synth.empty_stats;
              refined = true;
            }
      | _ -> ())
    answers;
  S.Store.flush store

(* A seeded permutation of [0, n). *)
let shuffle st n =
  let a = Array.init n Fun.id in
  for i = n - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* Program indices in rounds: each round is a fresh permutation of all
   [n] programs, so any stretch of the stream holds every program in
   nearly equal shares and the work per request does not drift with
   the seed. *)
let rounds st n =
  let buf = ref [||] and pos = ref 0 in
  fun () ->
    if !pos >= Array.length !buf then begin
      buf := shuffle st n;
      pos := 0
    end;
    incr pos;
    !buf.(!pos - 1)

(* Seeded Poisson arrivals at [rate] per second over [t0, t0 + dur). *)
let poisson st ~rate ~t0 ~dur =
  let rec go t acc =
    let t = t -. (log (1. -. Random.State.float st 1.) /. rate) in
    if t >= t0 +. dur then List.rev acc else go t (t :: acc)
  in
  go t0 []

(* ------------------------------------------------------------------ *)
(* Traced in-process replay                                            *)
(* ------------------------------------------------------------------ *)

(* The hit stream again, in process and closed loop: each request goes
   through Serve.handle_line, then through the public parts that
   handle_line composes, each timed on its own.  Every part is recorded
   per tenth of the stream, so a slowdown with age shows in the layer
   that causes it. *)
let parts =
  [ "serve.handle"; "serve.decode"; "dsl.parse"; "dsl.typecheck"; "dsl.sexec";
    "serve.store_key"; "store.find"; "serve.tier1"; "serve.render" ]

let replay ~dir lines =
  let store = S.Store.open_store ~dir:(Filename.concat dir "store") () in
  let base = Synth.config in
  let h = S.Serve.handler ~store ~base () in
  let stub_cache = S.Stub.Cache.create () in
  let n = Array.length lines in
  let windows = Array.init 10 (fun _ -> Trace.create ()) in
  let misses = ref 0 in
  Array.iteri
    (fun i line ->
      let tr = windows.(i * 10 / n) in
      let b0, _, k0 = S.Spec.key_stats () in
      ignore (Trace.span tr "serve.handle" (fun () -> S.Serve.handle_line h line));
      Trace.op tr (fun () ->
          let source =
            Trace.span tr "serve.decode" (fun () ->
                match Json.of_string line with
                | Ok j -> Option.bind (Json.member "program" j) Json.to_string_opt |> Option.get
                | Error e -> failwith e)
          in
          let env, prog = Trace.span tr "dsl.parse" (fun () -> Dsl.Parser.program source) in
          ignore (Trace.span tr "dsl.typecheck" (fun () -> Dsl.Types.infer env prog));
          let spec = Trace.span tr "dsl.sexec" (fun () -> Dsl.Sexec.exec_env env prog) in
          let key =
            Trace.span tr "serve.store_key" (fun () ->
                S.Superopt.store_key ~config:base ~model:Synth.model ~env ~spec prog)
          in
          ignore (Trace.span tr "store.find" (fun () -> S.Store.find_outcome store ~key));
          let o =
            Trace.span tr "serve.tier1" (fun () ->
                S.Superopt.optimize ~config:base ~store ~stub_cache ~model:Synth.model ~spec ~env prog)
          in
          if not o.from_cache then incr misses;
          ignore
            (Trace.span tr "serve.render" (fun () ->
                 Json.to_string
                   (Json.Obj
                      [ ("optimized", Json.Str (Dsl.Parser.unparse env o.optimized));
                        ("cost_after", Json.Float o.optimized_cost) ]))));
      let b1, _, k1 = S.Spec.key_stats () in
      Trace.count tr "spec.key_builds" (b1 - b0);
      Trace.record tr "spec.key" (k1 -. k0))
    lines;
  (windows, S.Serve.coalesced_total h, S.Store.stats store, !misses)

(* ------------------------------------------------------------------ *)
(* The workloads                                                       *)
(* ------------------------------------------------------------------ *)

(* Hits per second at the fixed rate.  Each connection answers its
   requests in order, so a request queues behind a slow (layernorm) hit
   on its connection; at this rate that happens to few requests, even
   when neighbouring load slows the machine down. *)
let fixed_rate = 250.

(* Requests in the traced in-process replay of the hit stream. *)
let replay_len = 10_000

(* Passes of the aging probe after its warm-up pass. *)
let age_rounds = 7

(* Consecutive slices of [n] elements (the last may be shorter). *)
let rec chunks n xs =
  if xs = [] then []
  else List.filteri (fun i _ -> i < n) xs :: chunks n (List.filteri (fun i _ -> i >= n) xs)

(* Ten consecutive, equal slices of a chronological list. *)
let tenths xs =
  let a = Array.of_list xs in
  let n = Array.length a in
  List.init 10 (fun w -> Array.to_list (Array.sub a (w * n / 10) (((w + 1) * n / 10) - (w * n / 10))))

type served = {
  tag : int;  (** program index *)
  latency : float;  (** from due time *)
  late : float;  (** sent time minus due time *)
  service : float;  (** response time minus sent time *)
  reply : reply option;  (** [None]: no response (transport failure) *)
  busy : bool;  (** shed by the daemon *)
}

let collect (reqs : req array) results =
  Array.to_list
    (Array.mapi
       (fun i (r : res) ->
         let q = reqs.(i) in
         {
           tag = q.tag;
           latency = r.recv -. q.due;
           late = r.sent_at -. q.due;
           service = r.recv -. r.sent_at;
           reply = (if Float.is_nan r.recv then None else parse_reply r.resp);
           busy = S.Serve.is_busy_line r.resp;
         })
       results)
  |> List.filter (fun s -> not (Float.is_nan s.late))

let serve ~seed ~seconds ~trace ~solved ~cli ~dir ~spawn =
  let programs = hit_programs () in
  let nprog = Array.length programs in
  (* Set-up: write the solved programs into the daemon's store
     directory, then start the daemon on it. *)
  let answers = read_solved solved programs in
  fill (S.Store.open_store ~dir:(Filename.concat dir "store") ()) answers;
  let fill = Array.to_list answers in
  let d = start_daemon ~cli ~dir ~name:"daemon" in
  let alive = ref true in
  let stop () =
    if !alive then begin
      alive := false;
      stop_daemon d
    end
    else nan
  in
  Fun.protect
    ~finally:(fun () -> ignore (stop ()))
    (fun () ->
      let conns = [| connect d.port; connect d.port |] in
      (* A pass: every program [n] times, closed loop on an otherwise
         idle daemon. *)
      let pass conns n =
        let reqs =
          Array.init (n * nprog) (fun i ->
              { due = now (); conn = i mod 2; line = request_line i (snd programs.(i mod nprog)); tag = i mod nprog })
        in
        collect reqs (run ~closed:true conns reqs)
      in
      (* Warm-up, so that the measured stream starts with every entry
         resident in the daemon's memory front. *)
      let warm = pass conns 1 in
      let st = Random.State.make [| 0x5e7e; seed |] in
      let t0 = now () +. 0.01 in
      let setup_s = t0 -. spawn in
      (* A third of the run at the fixed rate, the rest closed loop. *)
      let closed_window = seconds *. 2. /. 3. in
      let fixed = seconds -. closed_window in
      let next_tag = rounds st nprog in
      let hit k due =
        let tag = next_tag () in
        { due; conn = k mod 2; line = request_line k (snd programs.(tag)); tag }
      in
      (* Phase 1: open loop at a fixed rate on both connections. *)
      let reqs1 = Array.of_list (List.mapi hit (poisson st ~rate:fixed_rate ~t0 ~dur:fixed)) in
      let phase1 = collect reqs1 (run conns reqs1) in
      (* Phase 2: closed loop, each connection sending its next request
         as soon as the previous one is answered. *)
      let t1 = now () in
      let reqs2 = Array.init 40_000 (fun k -> hit k t1) in
      let t2 = t1 +. closed_window in
      let phase2 = collect reqs2 (run ~closed:true ~until:t2 conns reqs2) in
      let throughput = float_of_int (List.length phase2) /. closed_window in
      (* Aging: this daemon and a fresh one on the same store answer the
         same closed-loop passes over the 42 programs side by side, one
         connection each, so both see the same machine; the first pass
         warms the fresh daemon. *)
      let fresh = start_daemon ~cli ~dir ~name:"fresh-daemon" in
      let side_by_side =
        Fun.protect
          ~finally:(fun () -> ignore (stop_daemon fresh))
          (fun () ->
            let pair = [| conns.(0); connect fresh.port |] in
            let reqs =
              Array.init (2 * (age_rounds + 1) * nprog) (fun i ->
                  let tag = i / 2 mod nprog in
                  { due = now (); conn = i mod 2; line = request_line i (snd programs.(tag)); tag })
            in
            let r = collect reqs (run ~closed:true pair reqs) in
            close pair.(1);
            r)
      in
      let rounds =
        List.tl
          (List.map
             (fun round -> List.partition (fun (i, _) -> i mod 2 = 0) round)
             (chunks (2 * nprog) (List.mapi (fun i s -> (i, s)) side_by_side)))
      in
      Array.iter close conns;
      let rss = stop () in
      let service xs = median (List.map (fun (_, s) -> s.service) xs) in
      let age = service (List.concat_map fst rounds) /. service (List.concat_map snd rounds) in
      (* Checks: every fill answer against the interpreter oracle, and
         every served answer against the fill's: the same program text
         at the same cost from tier 1, itself run on the oracle once
         per distinct text. *)
      let failures = ref [] in
      let fail op why = failures := (op, why) :: !failures in
      let wrong = ref 0 and extra_attempts = ref 0 in
      List.iteri
        (fun i (a : Synth.answer) ->
          match Synth.check ~seed:(seed + i) a with
          | Some why ->
              fail (Synth.name a.input) why;
              if a.failure = None then incr wrong
          | None -> ())
        fill;
      let solved =
        Array.of_list
          (List.map
             (fun (a : Synth.answer) ->
               (a.cost_after, Option.fold ~none:"" ~some:(Dsl.Parser.unparse a.env) a.optimized))
             fill)
      in
      let oracle = Hashtbl.create 64 in
      let agrees tag text =
        match Hashtbl.find_opt oracle (tag, text) with
        | Some ok -> ok
        | None ->
            let b = fst programs.(tag) in
            let ok =
              match Dsl.Parser.program text with
              | _, opt -> dsl_agrees ~seed:(seed + tag) ~env:b.env b.program opt
              | exception _ -> false
            in
            Hashtbl.add oracle (tag, text) ok;
            ok
      in
      let served = warm @ phase1 @ phase2 @ side_by_side in
      List.iter
        (fun s ->
          let op = (fst programs.(s.tag)).Suite.Benchmarks.name in
          match s.reply with
          | None -> fail op "no response (transport)"
          | Some r when not r.ok -> fail op "ok:false or busy"
          | Some r ->
              let cost, text = solved.(s.tag) in
              let why =
                if r.tier <> 1 then Some (Printf.sprintf "served from tier %d" r.tier)
                else if r.cost_after <> cost then
                  Some (Printf.sprintf "served cost_after %g, solved %g" r.cost_after cost)
                else if r.optimized <> text then Some "served a different program than the one solved"
                else if not (agrees s.tag r.optimized) then Some "wrong answer (interpreter oracle)"
                else None
              in
              Option.iter
                (fun why ->
                  fail op why;
                  incr wrong)
                why)
        served;
      let hit_lat = List.map (fun s -> s.latency) phase1 in
      (* In the closed loop each request is sent when the previous one
         on its connection is answered, so its latency is its service
         time. *)
      let closed_lat = List.map (fun s -> s.service) phase2 in
      let by_tenth = List.map median (tenths hit_lat) in
      let exec = Synth.exec_points ~seed fill in
      let attempted = List.length fill + List.length served in
      let nfail = List.length !failures in
      let late = List.map (fun s -> s.late) phase1 in
      let e2e =
        [
          ("setup_s", setup_s);
          ("latency_ms", geomean closed_lat *. 1e3);
          ("tail_ms", slowest_tenth_mean closed_lat *. 1e3);
          ("throughput_per_s", throughput);
          ("cost_ratio_geomean", geomean (Synth.cost_ratios fill));
          ("run_us_geomean", geomean (List.map (fun (e : Synth.exec_point) -> e.run_s *. 1e6) exec));
          ("peak_rss_mb", rss);
          ("ok_frac", 1. -. (float_of_int nfail /. float_of_int attempted));
        ]
      in
      let detail =
        [
          ("hits_fixed_rate", summary ~scale:1e6 ~p:(tail_level (List.length hit_lat)) hit_lat);
          ("hit_p50_us_by_tenth", Json.List (List.map (fun x -> Json.Float (x *. 1e6)) by_tenth));
          ("offered_rate_per_s", Json.Float fixed_rate);
          ("generator_late_us", summary ~scale:1e6 ~p:99. late);
          ("generator_late_max_us", Json.Float (List.fold_left Float.max 0. late *. 1e6));
          ("closed_loop_per_s", Json.Float throughput);
          ("hits_closed_loop", summary ~scale:1e6 ~p:(tail_level (List.length closed_lat)) closed_lat);
          ( "age_probe_ratios",
            Json.List (List.map (fun (a, f) -> Json.Float (service a /. service f)) rounds) );
        ]
      in
      let layers, trace_detail =
        if not trace then ([], [])
        else begin
          (* The fixed-rate hit stream, repeated to about [replay_len]
             requests. *)
          let lines =
            let stream = List.map (fun (q : req) -> q.line) (Array.to_list reqs1) in
            let times = max 1 (replay_len / max 1 (List.length stream)) in
            Array.of_list (List.concat (List.init times (fun _ -> stream)))
          in
          let windows, coalesced, counts, replay_misses = replay ~dir lines in
          if replay_misses > 0 then
            fail "replay" (Printf.sprintf "%d replayed hits missed the store" replay_misses);
          let all = Trace.merge (Array.to_list windows) in
          let us = Trace.median_us all in
          let first name = Trace.median_us windows.(0) name in
          let last name = Trace.median_us windows.(9) name in
          let key_us (w : Trace.t) =
            1e6 *. Trace.total w "spec.key" /. Float.max 1. (Trace.counted w "spec.key_builds")
          in
          let traced_parts =
            Trace.total all "serve.decode" +. Trace.total all "dsl.parse"
            +. Trace.total all "dsl.typecheck" +. Trace.total all "dsl.sexec"
            +. Trace.total all "serve.store_key" +. Trace.total all "store.find"
            +. Trace.total all "serve.tier1" +. Trace.total all "serve.render"
          in
          let busy = List.length (List.filter (fun s -> s.busy) served) in
          let tiers, tier_detail, tier_failures, tier_ops = Synth.tier_layers ~seed ~dir in
          List.iter
            (fun (op, why, is_wrong) ->
              fail op why;
              if is_wrong then incr wrong)
            tier_failures;
          extra_attempts := tier_ops;
          ( [
              ("dsl.parse_us", us "dsl.parse");
              ("dsl.typecheck_us", us "dsl.typecheck");
              ("dsl.sexec_us", us "dsl.sexec");
              ("spec.key_s", Trace.total all "spec.key");
              ("spec.key_builds", Trace.counted all "spec.key_builds");
              ("spec.key_us_first", key_us windows.(0));
              ("spec.key_us_last", key_us windows.(9));
              ("store.find_us", us "store.find");
              ("store.hits", float_of_int (counts.mem_hits + counts.disk_hits));
              ("store.misses", float_of_int counts.misses);
              ("store.evictions", float_of_int counts.evictions);
              ("serve.handle_us", us "serve.handle");
              ("serve.handle_us_first", first "serve.handle");
              ("serve.handle_us_last", last "serve.handle");
              ("serve.decode_us", us "serve.decode");
              ("serve.store_key_us", us "serve.store_key");
              ("serve.store_key_us_first", first "serve.store_key");
              ("serve.store_key_us_last", last "serve.store_key");
              ("serve.tier1_us", us "serve.tier1");
              ("serve.render_us", us "serve.render");
              ("serve.net_queue_us", (median hit_lat *. 1e6) -. us "serve.handle");
              ("serve.coalesced", float_of_int coalesced);
              ("serve.busy", float_of_int busy);
              ("serve.age_ratio", age);
              ("serve.hit_p50_us", median hit_lat *. 1e6);
              ("serve.hit_p99_us", percentile 99. hit_lat *. 1e6);
              ("load.late_p99_us", percentile 99. late *. 1e6);
              ("trace.unattributed_share", 1. -. (traced_parts /. all.wall));
              ("trace.overhead", all.wall /. Trace.total all "serve.handle");
            ]
          @ gc_layers ()
          @ Synth.exec_layers exec
          @ tiers,
            tier_detail
            @ [ ( "replay_us_by_tenth",
                Json.Obj
                  (List.map
                     (fun part ->
                       ( part,
                         Json.List
                           (List.init 10 (fun w -> Json.Float (Trace.median_us windows.(w) part))) ))
                     parts) ) ] )
        end
      in
      let detail = detail @ trace_detail in
      { e2e; layers; attempted = attempted + !extra_attempts; failures = List.rev !failures;
        wrong = !wrong; detail })
