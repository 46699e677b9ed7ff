type trip =
  | Steps
  | Deadline
  | Combos

type t =
  | Io of { path : string; detail : string }
  | Csv_shape of { file : string option; row : int option; detail : string }
  | Rule_parse of { file : string option; line : int option; detail : string }
  | Rule_invalid of { rule : string option; detail : string }
  | Spec_invalid of { detail : string }
  | Order_conflict of { rule : string; detail : string }
  | Budget_exhausted of { trip : trip; spent : int; detail : string }
  | Overloaded of { depth : int; detail : string }
  | Circuit_open of { spec : string; retry_ms : float; detail : string }
  | Internal of { detail : string }

exception Error of t

let io ~path detail = Io { path; detail }
let csv_shape ?file ?row detail = Csv_shape { file; row; detail }
let rule_parse ?file ?line detail = Rule_parse { file; line; detail }
let rule_invalid ?rule detail = Rule_invalid { rule; detail }
let spec_invalid detail = Spec_invalid { detail }
let order_conflict ~rule detail = Order_conflict { rule; detail }
let budget_exhausted ~trip ~spent detail = Budget_exhausted { trip; spent; detail }
let overloaded ~depth detail = Overloaded { depth; detail }
let circuit_open ~spec ~retry_ms detail = Circuit_open { spec; retry_ms; detail }
let internal detail = Internal { detail }

let trip_to_string = function
  | Steps -> "max-steps"
  | Deadline -> "deadline"
  | Combos -> "max-combos"

let class_name = function
  | Io _ -> "io"
  | Csv_shape _ -> "csv-shape"
  | Rule_parse _ -> "rule-parse"
  | Rule_invalid _ -> "rule-invalid"
  | Spec_invalid _ -> "spec-invalid"
  | Order_conflict _ -> "order-conflict"
  | Budget_exhausted _ -> "budget-exhausted"
  | Overloaded _ -> "overloaded"
  | Circuit_open _ -> "circuit-open"
  | Internal _ -> "internal"

(* Distinct per-class exit codes for the CLI. 0 is success and 1 is
   cmdliner's generic failure; 2 stays "not Church-Rosser", the
   code the chase subcommand has always used for order conflicts. *)
let exit_code = function
  | Order_conflict _ -> 2
  | Io _ -> 3
  | Csv_shape _ -> 4
  | Rule_parse _ -> 5
  | Rule_invalid _ -> 6
  | Spec_invalid _ -> 7
  | Budget_exhausted _ -> 8
  | Internal _ -> 10
  (* Service-boundary rejections (PR 6): both are retryable, which
     scripted callers distinguish from the permanent classes above. *)
  | Overloaded _ -> 11
  | Circuit_open _ -> 12

let pp ppf e =
  let where label file row =
    match (file, row) with
    | Some f, Some r -> Format.fprintf ppf "%s, %s %d: " f label r
    | Some f, None -> Format.fprintf ppf "%s: " f
    | None, Some r -> Format.fprintf ppf "%s %d: " label r
    | None, None -> ()
  in
  match e with
  | Io { path; detail } -> Format.fprintf ppf "cannot read %s: %s" path detail
  | Csv_shape { file; row; detail } ->
      Format.pp_print_string ppf "malformed CSV (";
      where "row" file row;
      Format.fprintf ppf "%s)" detail
  | Rule_parse { file; line; detail } ->
      Format.pp_print_string ppf "rule parse error (";
      where "line" file line;
      Format.fprintf ppf "%s)" detail
  | Rule_invalid { rule; detail } -> (
      match rule with
      | Some r -> Format.fprintf ppf "invalid rule %s: %s" r detail
      | None -> Format.fprintf ppf "invalid rule: %s" detail)
  | Spec_invalid { detail } -> Format.fprintf ppf "invalid specification: %s" detail
  | Order_conflict { rule; detail } ->
      Format.fprintf ppf "order conflict (rule %s): %s" rule detail
  | Budget_exhausted { trip; spent; detail } ->
      Format.fprintf ppf "budget exhausted (%s after %d steps): %s"
        (trip_to_string trip) spent detail
  | Overloaded { depth; detail } ->
      Format.fprintf ppf "overloaded (queue depth %d): %s" depth detail
  | Circuit_open { spec; retry_ms; detail } ->
      Format.fprintf ppf "circuit open for %s (retry in %.0f ms): %s" spec
        retry_ms detail
  | Internal { detail } -> Format.fprintf ppf "internal error: %s" detail

let to_string e = Format.asprintf "%a" pp e
let raise_error e = raise (Error e)

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Robust.Error.Error: " ^ to_string e)
    | _ -> None)

let guard_io ~path f =
  try Ok (f ()) with
  | Sys_error msg -> Error (Io { path; detail = msg })
  | End_of_file -> Error (Io { path; detail = "unexpected end of file" })

let of_exn = function
  | Error e -> e
  | Sys_error msg -> Internal { detail = msg }
  | Invalid_argument msg -> Internal { detail = msg }
  | Failure msg -> Internal { detail = msg }
  | exn -> Internal { detail = Printexc.to_string exn }
