(* Declarative JSON report schemas.  A report format is one [obj]: its
   fields (name, shape, getter from the value the report renders) and
   named invariants over the rendered document.  The same list renders a
   document ([emit]) and validates one ([validate]), so an emitter and
   its validator cannot drift apart. *)

module Json = Stenso.Telemetry.Json

(* Performance floors set by [stenso report --min-speedup] and
   [--min-success]. *)
type gate = Min_speedup | Min_success

let gate_flag = function
  | Min_speedup -> "--min-speedup"
  | Min_success -> "--min-success"

let gates ?min_speedup ?min_success () =
  List.filter_map
    (fun (g, v) -> Option.map (fun v -> (g, v)) v)
    [ (Min_speedup, min_speedup); (Min_success, min_success) ]

type shape =
  | Str
  | Int
  | Float  (* accepts an [Int] too *)
  | Bool
  | Tag of string  (* a string equal to this one *)
  | List of shape
  | Pair of shape * shape  (* a two-element list *)
  | Obj : 'a obj -> shape

and 'a obj = { fields : 'a field list; checks : check list }

and 'a field = {
  name : string;
  shape : shape;
  optional : bool;  (* may be absent when validating *)
  get : 'a -> Json.t option;  (* [None] leaves the field out *)
}

(* A named invariant over one object: [None] when it holds, else a
   detail for the error.  It runs once the object's fields conform. *)
and check = string * ((gate * float) list -> Json.t -> string option)

let obj ?(checks = []) fields = { fields; checks }

let field ?(optional = false) name shape get =
  { name; shape; optional; get = (fun x -> Some (get x)) }

let str ?optional name get =
  field ?optional name Str (fun x -> Json.Str (get x))

let int ?optional name get =
  field ?optional name Int (fun x -> Json.Int (get x))

let float name get = field name Float (fun x -> Json.Float (get x))
let bool name get = field name Bool (fun x -> Json.Bool (get x))

let float_opt name get =
  let f = float name Fun.id in
  { f with optional = true; get = (fun x -> Option.bind (get x) f.get) }

let strs name get =
  field name (List Str) (fun x ->
      Json.List (List.map (fun s -> Json.Str s) (get x)))

let emit o x =
  Json.Obj
    (List.filter_map
       (fun f -> Option.map (fun v -> (f.name, v)) (f.get x))
       o.fields)

let sub name o get = field name (Obj o) (fun x -> emit o (get x))

let subs name o get =
  field name (List (Obj o)) (fun x -> Json.List (List.map (emit o) (get x)))

let header ?version_optional id =
  [
    field "schema" (Tag id) (fun _ -> Json.Str id);
    str ?optional:version_optional "version" (fun _ -> Stenso.Version.current);
  ]

(* Readers for checks and summaries, by dotted path.  Both run on
   conforming documents, so a failed read names a field the schema does
   not declare: a bug in the reader's caller. *)
let read conv path j =
  let at j k = Option.get (Json.member k j) in
  Option.get (conv (List.fold_left at j (String.split_on_char '.' path)))

let get_int = read Json.to_int_opt
let get_float = read Json.to_float_opt
let get_bool = read Json.to_bool_opt
let get_str = read Json.to_string_opt
let get_list = read Json.to_list_opt
let check name holds : check = (name, fun _ j -> holds j)

(* The integer field [total] equals [count] of the object. *)
let agrees name total count =
  check name (fun j ->
      let t = get_int total j and c = count j in
      if t = c then None else Some (Printf.sprintf "%d vs %d" t c))

let length_matches ~count ~items =
  agrees (Printf.sprintf "%s = length of %s" count items) count (fun j ->
      List.length (get_list items j))

let monotone names =
  check (String.concat " <= " names) (fun j ->
      let vs = List.map (fun n -> get_float n j) names in
      if List.sort Float.compare vs = vs then None
      else Some (String.concat ", " (List.map (Printf.sprintf "%g") vs)))

let floor gate ~field : check =
  ( Printf.sprintf "%s >= %s" field (gate_flag gate),
    fun gates j ->
      match List.assoc_opt gate gates with
      | Some m when get_float field j < m ->
          Some (Printf.sprintf "%g below the floor %g" (get_float field j) m)
      | _ -> None )

let ( let* ) = Result.bind

let rec all f = function
  | [] -> Ok ()
  | x :: rest ->
      let* () = f x in
      all f rest

let rec conforms gates path shape (j : Json.t) =
  let at = if path = "" then "" else path ^ ": " in
  match (shape, j) with
  | Str, Json.Str _ | Int, Json.Int _ | Bool, Json.Bool _ -> Ok ()
  | Float, (Json.Float _ | Json.Int _) -> Ok ()
  | Tag t, Json.Str s when String.equal s t -> Ok ()
  | Tag t, Json.Str s -> Error (Printf.sprintf "%sexpected %S, got %S" at t s)
  | List s, Json.List xs ->
      all
        (fun (i, x) -> conforms gates (Printf.sprintf "%s[%d]" path i) s x)
        (List.mapi (fun i x -> (i, x)) xs)
  | Pair (a, b), Json.List [ x; y ] ->
      let* () = conforms gates (path ^ "[0]") a x in
      conforms gates (path ^ "[1]") b y
  | Obj o, Json.Obj _ ->
      let* () =
        all
          (fun f ->
            let name = if path = "" then f.name else path ^ "." ^ f.name in
            match Json.member f.name j with
            | None when f.optional -> Ok ()
            | None -> Error (Printf.sprintf "missing field %S" name)
            | Some v -> conforms gates name f.shape v)
          o.fields
      in
      all
        (fun (name, holds) ->
          match holds gates j with
          | None -> Ok ()
          | Some detail ->
              Error (Printf.sprintf "%s%s violated (%s)" at name detail))
        o.checks
  | _ when path = "" -> Error "not a JSON object"
  | _ -> Error (Printf.sprintf "mistyped field %S" path)

(* Every required field present, every field of its shape, then every
   check; the error names the path, e.g.
   [missing field "benchmarks[3].search.nodes"]. *)
let validate ?(gates = []) shape j = conforms gates "" shape j
