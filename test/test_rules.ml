(* Rule generalization and application (Section VII-D). *)
open Dsl
open Stenso

let ast = Alcotest.testable Ast.pp Ast.equal
let p = Parser.expression

let diag_rule =
  Rules.generalize
    (p "np.diag(np.dot(A, B))")
    (p "np.sum(np.multiply(A, B.T), axis=1)")

let test_generalize () =
  Alcotest.check ast "lhs abstracted"
    (p "np.diag(np.dot(X, Y))")
    diag_rule.lhs;
  Alcotest.check ast "rhs abstracted"
    (p "np.sum(np.multiply(X, Y.T), axis=1)")
    diag_rule.rhs;
  Alcotest.(check (list (pair string string)))
    "metavariable map"
    [ ("A", "X"); ("B", "Y") ]
    diag_rule.metavars

let test_match_and_apply () =
  (* matches with arbitrary subterms bound to the metavariables *)
  let target = p "np.diag(np.dot(P + Q, np.transpose(R)))" in
  (match Rules.matches diag_rule target with
  | Some bindings ->
      Alcotest.(check int) "two bindings" 2 (List.length bindings)
  | None -> Alcotest.fail "rule should match");
  (match Rules.apply_once diag_rule target with
  | Some rewritten ->
      Alcotest.check ast "instantiated rhs"
        (p "np.sum(np.multiply(P + Q, np.transpose(np.transpose(R))), axis=1)")
        rewritten
  | None -> Alcotest.fail "rule should rewrite");
  (* no match -> no rewrite *)
  Alcotest.(check bool) "no false positives" true
    (Rules.apply_once diag_rule (p "np.dot(A, B)") = None)

let test_apply_nested () =
  (* rewriting fires below the root too *)
  let target = p "np.sqrt(np.diag(np.dot(A, B)))" in
  match Rules.apply_once diag_rule target with
  | Some rewritten ->
      Alcotest.check ast "nested rewrite"
        (p "np.sqrt(np.sum(np.multiply(A, B.T), axis=1))")
        rewritten
  | None -> Alcotest.fail "nested position should rewrite"

let test_consistent_binding () =
  (* the same metavariable must bind identical subterms *)
  let rule = Rules.generalize (p "A * B + A * B") (p "2 * (A * B)") in
  Alcotest.(check bool) "consistent occurrence matches" true
    (Rules.matches rule (p "P * Q + P * Q") <> None);
  Alcotest.(check bool) "inconsistent occurrence rejected" true
    (Rules.matches rule (p "P * Q + P * R") = None)

let test_rule_preserves_semantics () =
  (* applying a mined rule to fresh programs preserves equivalence *)
  let env =
    [ ("P", Types.float_t [| 2; 3 |]); ("Q", Types.float_t [| 3; 2 |]) ]
  in
  let target = p "np.diag(np.dot(P, Q))" in
  match Rules.apply_once diag_rule target with
  | Some rewritten ->
      Alcotest.(check bool) "equivalent after rewrite" true
        (Sexec.equivalent env target rewritten)
  | None -> Alcotest.fail "should apply"

let test_apply_fixpoint () =
  let rules =
    [
      Rules.generalize (p "np.exp(np.log(A))") (p "A");
      Rules.generalize (p "A * B + A * B") (p "2 * (A * B)");
    ]
  in
  Alcotest.check ast "both rules fire to fixpoint"
    (p "np.multiply(2, np.multiply(P, Q))")
    (Rules.apply_fixpoint rules
       (p "np.exp(np.log(P * Q + P * Q))"));
  Alcotest.check ast "fixpoint of no match is identity" (p "P + Q")
    (Rules.apply_fixpoint rules (p "P + Q"))

let test_generalize_no_capture () =
  (* Distinct inputs must get distinct metavariables even when an input
     is literally named like a metavariable: the old sequential
     substitution turned add(W, X) into add(Y, Y) (abstracting W to X
     first, then X — now both occurrences — to Y). *)
  let rule = Rules.generalize (p "np.add(W, X)") (p "W") in
  List.iter
    (fun (inp, mv) ->
      if List.mem mv [ "W"; "X" ] then
        Alcotest.failf "metavar %s collides with input %s" mv inp)
    rule.metavars;
  (match Rules.matches rule (p "np.add(P, Q)") with
  | Some bindings ->
      Alcotest.(check int) "two distinct operands bound" 2
        (List.length bindings)
  | None -> Alcotest.fail "generalized rule must keep its operands distinct");
  (* and the abstraction still rewrites correctly *)
  match Rules.apply_once rule (p "np.add(P, Q)") with
  | Some r -> Alcotest.check ast "projects the first operand" (p "P") r
  | None -> Alcotest.fail "rule should apply"

let test_apply_no_capture () =
  (* Instantiating commutativity on add(Y, Q): the binding X ↦ Y must
     not be rewritten again by the binding for metavariable Y — the old
     sequential substitution produced add(Q, Q). *)
  let comm = Rules.generalize (p "np.add(A, B)") (p "np.add(B, A)") in
  match Rules.apply_once comm (p "np.add(Y, Q)") with
  | Some r ->
      Alcotest.check ast "operands swapped, not conflated"
        (p "np.add(Q, Y)") r
  | None -> Alcotest.fail "commutativity should apply"

let test_closed () =
  Alcotest.(check bool) "diag rule is closed" true (Rules.closed diag_rule);
  (* a dead lhs input lets the rhs mention an input the lhs never binds:
     such a rule must be flagged open (unsound to apply anywhere) *)
  let open_rule = Rules.generalize (p "np.multiply(B, 0)") (p "C") in
  Alcotest.(check bool) "rhs input not bound on the lhs" false
    (Rules.closed open_rule)

let test_fixpoint_pingpong () =
  (* An inverse pair (here: commutativity with itself) ping-pongs; the
     walk must stop on the first revisit and return the cheapest
     program seen, not loop until the step budget. *)
  let comm = Rules.generalize (p "A + B") (p "B + A") in
  Alcotest.check ast "commutativity terminates on revisit" (p "P + Q")
    (Rules.apply_fixpoint [ comm ] (p "P + Q"));
  (* a growing rule walks away from the input; cheapest-seen wins *)
  let grow = Rules.generalize (p "np.sqrt(A)") (p "np.sqrt(np.sqrt(A))") in
  Alcotest.check ast "cheapest seen returned" (p "np.sqrt(P)")
    (Rules.apply_fixpoint [ grow ] (p "np.sqrt(P)"))

let test_classifier () =
  let check name orig opt expected =
    let k =
      Classify.classify ~original:(p orig) ~optimized:(p opt)
    in
    Alcotest.(check string) name expected (Classify.klass_name k)
  in
  check "loop removal is vectorization" "np.stack([r * 2 for r in A])"
    "np.multiply(2, A)" "Vectorization";
  check "double transpose is redundancy"
    "np.transpose(np.transpose(A))" "A" "Redundancy Elimination";
  check "pow to mul is strength reduction" "np.power(A, 2)"
    "np.multiply(A, A)" "Strength Reduction";
  check "diag dot is identity replacement" "np.diag(np.dot(A, B))"
    "np.sum(np.multiply(A, B.T), axis=1)" "Identity Replacement";
  check "term rewriting is algebraic" "A * B + C * B"
    "np.multiply(np.add(A, C), B)" "Algebraic Simplification"

let suite =
  [
    Alcotest.test_case "generalization" `Quick test_generalize;
    Alcotest.test_case "match and apply" `Quick test_match_and_apply;
    Alcotest.test_case "nested application" `Quick test_apply_nested;
    Alcotest.test_case "consistent bindings" `Quick test_consistent_binding;
    Alcotest.test_case "semantics preserved" `Quick
      test_rule_preserves_semantics;
    Alcotest.test_case "rule set to fixpoint" `Quick test_apply_fixpoint;
    Alcotest.test_case "generalize avoids capture" `Quick
      test_generalize_no_capture;
    Alcotest.test_case "apply avoids capture" `Quick test_apply_no_capture;
    Alcotest.test_case "closedness" `Quick test_closed;
    Alcotest.test_case "fixpoint ping-pong" `Quick test_fixpoint_pingpong;
    Alcotest.test_case "transformation classifier" `Quick test_classifier;
  ]
