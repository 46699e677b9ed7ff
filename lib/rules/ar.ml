module Value = Relational.Value
module Schema = Relational.Schema

type op = Eq | Neq | Lt | Gt | Leq | Geq

let eval_op op a b =
  match op with
  | Eq -> Value.equal a b
  | Neq -> not (Value.equal a b)
  | Lt -> Value.lt a b
  | Gt -> Value.lt b a
  | Leq -> Value.lt a b || Value.equal a b
  | Geq -> Value.lt b a || Value.equal a b

let negate_op = function
  | Eq -> Neq
  | Neq -> Eq
  | Lt -> Geq
  | Gt -> Leq
  | Leq -> Gt
  | Geq -> Lt

let mirror_op = function
  | Eq -> Eq
  | Neq -> Neq
  | Lt -> Gt
  | Gt -> Lt
  | Leq -> Geq
  | Geq -> Leq

let pp_op ppf op =
  Format.pp_print_string ppf
    (match op with
    | Eq -> "="
    | Neq -> "!="
    | Lt -> "<"
    | Gt -> ">"
    | Leq -> "<="
    | Geq -> ">=")

type side = T1 | T2

type term =
  | Tuple_attr of side * int
  | Target_attr of int
  | Const of Value.t

type pred =
  | Cmp of term * op * term
  | Ord of { strict : bool; left : side; right : side; attr : int }

type ord_atom = { strict : bool; left : side; right : side; attr : int }

type form1 = { f1_name : string; f1_lhs : pred list; f1_rhs : ord_atom }

type mpred =
  | Te_const of int * op * Value.t
  | Te_master of int * int
  | Master_const of int * op * Value.t

type form2 = {
  f2_name : string;
  f2_lhs : mpred list;
  f2_te_attr : int;
  f2_tm_attr : int;
}

type t = Form1 of form1 | Form2 of form2

let name = function Form1 r -> r.f1_name | Form2 r -> r.f2_name
let is_form1 = function Form1 _ -> true | Form2 _ -> false
let is_form2 = function Form2 _ -> true | Form1 _ -> false

let validate ~schema ~master rule =
  let n = Schema.arity schema in
  let check_entity_attr a =
    if a < 0 || a >= n then Error (Printf.sprintf "entity attribute %d out of range" a)
    else Ok ()
  in
  let ( let* ) = Result.bind in
  match rule with
  | Form1 r ->
      let check_term = function
        | Tuple_attr (_, a) | Target_attr a -> check_entity_attr a
        | Const _ -> Ok ()
      in
      let* () =
        List.fold_left
          (fun acc p ->
            let* () = acc in
            match p with
            | Cmp (l, _, r) ->
                let* () = check_term l in
                check_term r
            | Ord { attr; _ } -> check_entity_attr attr)
          (Ok ()) r.f1_lhs
      in
      check_entity_attr r.f1_rhs.attr
  | Form2 r -> (
      match master with
      | None -> Error (Printf.sprintf "rule %s is form (2) but no master schema" r.f2_name)
      | Some ms ->
          let m = Schema.arity ms in
          let check_master_attr a =
            if a < 0 || a >= m then
              Error (Printf.sprintf "master attribute %d out of range" a)
            else Ok ()
          in
          let* () =
            List.fold_left
              (fun acc p ->
                let* () = acc in
                match p with
                | Te_const (a, _, _) -> check_entity_attr a
                | Te_master (a, b) ->
                    let* () = check_entity_attr a in
                    check_master_attr b
                | Master_const (b, _, _) -> check_master_attr b)
              (Ok ()) r.f2_lhs
          in
          let* () = check_entity_attr r.f2_te_attr in
          check_master_attr r.f2_tm_attr)

let attr_written = function
  | Form1 r -> r.f1_rhs.attr
  | Form2 r -> r.f2_te_attr

(* Pretty-printing in the Parser's concrete syntax. *)

let is_plain_ident s =
  s <> ""
  && (match s.[0] with 'a' .. 'z' | 'A' .. 'Z' | '_' -> true | _ -> false)
  && String.for_all
       (function 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true | _ -> false)
       s

let pp_attr schema ppf a =
  let s = Schema.attribute schema a in
  if is_plain_ident s then Format.pp_print_string ppf s
  else Format.fprintf ppf "%S" s

let pp_side ppf = function
  | T1 -> Format.pp_print_string ppf "t1"
  | T2 -> Format.pp_print_string ppf "t2"

let pp_const ppf v =
  match v with
  | Value.String s -> Format.fprintf ppf "%S" s
  | _ -> Value.pp ppf v

let pp_term schema ppf = function
  | Tuple_attr (s, a) -> Format.fprintf ppf "%a.%a" pp_side s (pp_attr schema) a
  | Target_attr a -> Format.fprintf ppf "te.%a" (pp_attr schema) a
  | Const v -> pp_const ppf v

let pp_ord schema ppf (strict, left, right, attr) =
  Format.fprintf ppf "%a %s[%a] %a" pp_side left
    (if strict then "<" else "<=")
    (pp_attr schema) attr pp_side right

let pp_pred schema ppf = function
  | Cmp (l, op, r) ->
      Format.fprintf ppf "%a %a %a" (pp_term schema) l pp_op op (pp_term schema) r
  | Ord { strict; left; right; attr } -> pp_ord schema ppf (strict, left, right, attr)

let pp_mpred schema master ppf = function
  | Te_const (a, op, v) ->
      Format.fprintf ppf "te.%a %a %a" (pp_attr schema) a pp_op op pp_const v
  | Te_master (a, b) ->
      Format.fprintf ppf "te.%a = tm.%a" (pp_attr schema) a (pp_attr master) b
  | Master_const (b, op, v) ->
      Format.fprintf ppf "tm.%a %a %a" (pp_attr master) b pp_op op pp_const v

let pp_rule_name ppf name =
  if is_plain_ident name then Format.pp_print_string ppf name
  else Format.fprintf ppf "%S" name

let pp ~schema ?master ppf rule =
  match rule with
  | Form1 r ->
      Format.fprintf ppf "@[<h>rule %a: forall t1, t2: " pp_rule_name r.f1_name;
      (match r.f1_lhs with
      | [] -> Format.pp_print_string ppf "true"
      | preds ->
          List.iteri
            (fun i p ->
              if i > 0 then Format.fprintf ppf " and ";
              pp_pred schema ppf p)
            preds);
      let { strict; left; right; attr } = r.f1_rhs in
      Format.fprintf ppf " -> %a@]" (pp_ord schema) (strict, left, right, attr)
  | Form2 r ->
      let master =
        match master with
        | Some m -> m
        | None -> invalid_arg "Ar.pp: form (2) rule without ?master"
      in
      Format.fprintf ppf "@[<h>rule %a: forall tm: " pp_rule_name r.f2_name;
      (match r.f2_lhs with
      | [] -> Format.pp_print_string ppf "true"
      | preds ->
          List.iteri
            (fun i p ->
              if i > 0 then Format.fprintf ppf " and ";
              pp_mpred schema master ppf p)
            preds);
      Format.fprintf ppf " -> te.%a := tm.%a@]" (pp_attr schema) r.f2_te_attr
        (pp_attr master) r.f2_tm_attr
