module Ast = Dsl.Ast

type t = {
  lhs : Ast.t;
  rhs : Ast.t;
  metavars : (string * string) list;
}

let metavar_names = [ "X"; "Y"; "Z"; "W"; "V"; "U"; "T"; "S" ]

let generalize original optimized =
  let inputs = Ast.inputs original in
  (* Metavariable names must be fresh with respect to *every* input name
     on either side: an input literally named [X] must not collide with
     metavar [X], or the abstraction conflates distinct inputs. *)
  let taken = ref (Ast.inputs optimized @ inputs) in
  let fresh () =
    let rec first = function
      | name :: rest ->
          if List.mem name !taken then first rest else name
      | [] ->
          let rec numbered i =
            let name = Printf.sprintf "X%d" i in
            if List.mem name !taken then numbered (i + 1) else name
          in
          numbered 0
    in
    let name = first metavar_names in
    taken := name :: !taken;
    name
  in
  let metavars = List.map (fun name -> (name, fresh ())) inputs in
  (* Simultaneous substitution: a replacement is never itself
     re-substituted, so even adversarial input names cannot capture. *)
  let abstract prog =
    Ast.subst_inputs
      (List.map (fun (name, mv) -> (name, Ast.Input mv)) metavars)
      prog
  in
  { lhs = abstract original; rhs = abstract optimized; metavars }

let specialize rule bindings =
  (* Simultaneous: a binding [X ↦ Input "Y"] must not be rewritten again
     by the binding for metavar [Y]. *)
  let instantiate prog = Ast.subst_inputs bindings prog in
  (instantiate rule.lhs, instantiate rule.rhs)

let closed rule =
  let lhs_inputs = Ast.inputs rule.lhs in
  List.for_all (fun n -> List.mem n lhs_inputs) (Ast.inputs rule.rhs)

let matches rule prog =
  let exception Mismatch in
  let bindings : (string, Ast.t) Hashtbl.t = Hashtbl.create 8 in
  let is_metavar name = List.exists (fun (_, mv) -> mv = name) rule.metavars in
  let rec go (pat : Ast.t) (t : Ast.t) =
    match (pat, t) with
    | Input mv, _ when is_metavar mv -> (
        match Hashtbl.find_opt bindings mv with
        | Some bound -> if not (Ast.equal bound t) then raise Mismatch
        | None -> Hashtbl.replace bindings mv t)
    | Input a, Input b -> if a <> b then raise Mismatch
    | Const a, Const b -> if a <> b then raise Mismatch
    | App (op1, args1), App (op2, args2) ->
        if op1 <> op2 || List.length args1 <> List.length args2 then
          raise Mismatch;
        List.iter2 go args1 args2
    | For_stack f1, For_stack f2 ->
        (* comprehension variables must coincide for a syntactic match *)
        if f1.var <> f2.var || f1.iter <> f2.iter then raise Mismatch;
        go f1.body f2.body
    | (Input _ | Const _ | App _ | For_stack _), _ -> raise Mismatch
  in
  match go rule.lhs prog with
  | () -> Some (Hashtbl.fold (fun k v acc -> (k, v) :: acc) bindings [])
  | exception Mismatch -> None

let rec apply_once rule prog =
  match matches rule prog with
  | Some bindings -> Some (snd (specialize rule bindings))
  | None ->
      let rewritten = ref false in
      let prog' =
        Ast.map_children
          (fun child ->
            if !rewritten then child
            else
              match apply_once rule child with
              | Some c ->
                  rewritten := true;
                  c
              | None -> child)
          prog
      in
      if !rewritten then Some prog' else None

let apply_fixpoint ?(max_steps = 32) ?cost rules prog =
  let cost =
    match cost with
    | Some f -> f
    | None -> fun p -> float_of_int (Ast.size p)
  in
  let step prog =
    List.fold_left
      (fun acc rule ->
        match acc with
        | Some _ -> acc
        | None -> apply_once rule prog)
      None rules
  in
  (* Inverse rule pairs (a+b ⇒ b+a and back) cycle forever: track every
     program visited and stop on the first revisit, returning the
     cheapest program seen rather than whatever intermediate the step
     budget happened to land on. *)
  let seen : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let best = ref prog in
  let best_cost = ref (cost prog) in
  let rec go n prog =
    let key = Ast.to_string prog in
    if n > 0 && not (Hashtbl.mem seen key) then begin
      Hashtbl.add seen key ();
      match step prog with
      | None -> ()
      | Some p ->
          let c = cost p in
          if c < !best_cost then begin
            best := p;
            best_cost := c
          end;
          go (n - 1) p
    end
  in
  go max_steps prog;
  !best

let pp ppf rule = Format.fprintf ppf "%a  ==>  %a" Ast.pp rule.lhs Ast.pp rule.rhs
let to_string rule = Format.asprintf "%a" pp rule
