(** Well-formedness checking for FlexBPF programs.

    Every name must resolve (headers, fields, maps, actions), map
    accesses must match the declared key arity, action parameters must be
    declared, and loop bounds must be positive and below the target-
    independent ceiling. Rules are checked separately against their table
    at install time, which is where runtime API calls are validated. *)

open Ast

type error = {
  where : string; (* element / action / rule context *)
  what : string;
}

let err where fmt = Printf.ksprintf (fun what -> { where; what }) fmt

let pp_error ppf e = Fmt.pf ppf "%s: %s" e.where e.what

(** Upper bound on [Loop] counts: keeps worst-case execution statically
    small, which the bounded-execution certifier (Analysis) relies on. *)
let max_loop_bound = 64

let rec dedup_errors seen = function
  | [] -> []
  | e :: rest ->
    if List.mem e seen then dedup_errors seen rest
    else e :: dedup_errors (e :: seen) rest

let duplicates names =
  let tbl = Hashtbl.create 16 in
  List.filter
    (fun n ->
      if Hashtbl.mem tbl n then true
      else begin
        Hashtbl.replace tbl n ();
        false
      end)
    names

let check_field prog ~where h f =
  match find_header prog h with
  | None -> [ err where "unknown header %s" h ]
  | Some hd ->
    if List.mem_assoc f hd.hdr_fields then []
    else [ err where "unknown field %s.%s" h f ]

let check_map prog ~where m arity =
  match find_map prog m with
  | None -> [ err where "unknown map %s" m ]
  | Some decl ->
    if decl.key_arity = arity then []
    else
      [ err where "map %s expects %d keys, got %d" m decl.key_arity arity ]

let rec check_expr prog ~where ~params = function
  | Const _ | Meta _ | Time -> []
  | Field (h, f) -> check_field prog ~where h f
  | Param p ->
    if List.mem p params then []
    else [ err where "unbound action parameter $%s" p ]
  | Map_get (m, keys) ->
    check_map prog ~where m (List.length keys)
    @ List.concat_map (check_expr prog ~where ~params) keys
  | Bin (_, a, b) ->
    check_expr prog ~where ~params a @ check_expr prog ~where ~params b
  | Un (_, e) -> check_expr prog ~where ~params e
  | Hash (_, es) -> List.concat_map (check_expr prog ~where ~params) es

let rec check_stmt prog ~where ~params = function
  | Nop | Drop | Punt _ -> []
  | Set_field (h, f, e) ->
    check_field prog ~where h f @ check_expr prog ~where ~params e
  | Set_meta (_, e) -> check_expr prog ~where ~params e
  | Map_put (m, keys, v) | Map_incr (m, keys, v) ->
    check_map prog ~where m (List.length keys)
    @ List.concat_map (check_expr prog ~where ~params) keys
    @ check_expr prog ~where ~params v
  | Map_del (m, keys) ->
    check_map prog ~where m (List.length keys)
    @ List.concat_map (check_expr prog ~where ~params) keys
  | If (c, th, el) ->
    check_expr prog ~where ~params c
    @ check_stmts prog ~where ~params th
    @ check_stmts prog ~where ~params el
  | Loop (n, body) ->
    (if n <= 0 then [ err where "loop bound %d must be positive" n ]
     else if n > max_loop_bound then
       [ err where "loop bound %d exceeds maximum %d" n max_loop_bound ]
     else [])
    @ check_stmts prog ~where ~params body
  | Forward e -> check_expr prog ~where ~params e
  | Push_header h | Pop_header h ->
    (match find_header prog h with
     | Some _ -> []
     | None -> [ err where "unknown header %s" h ])
  | Call (_, args) -> List.concat_map (check_expr prog ~where ~params) args

and check_stmts prog ~where ~params stmts =
  List.concat_map (check_stmt prog ~where ~params) stmts

let check_action prog ~table a =
  let where = Printf.sprintf "%s.%s" table a.act_name in
  (match duplicates a.params with
   | [] -> []
   | ds -> List.map (fun d -> err where "duplicate parameter %s" d) ds)
  @ check_stmts prog ~where ~params:a.params a.body

let check_table prog t =
  let where = t.tbl_name in
  let key_errors =
    List.concat_map (fun (e, _) -> check_expr prog ~where ~params:[] e) t.keys
  in
  let action_errors =
    List.concat_map (check_action prog ~table:t.tbl_name) t.tbl_actions
  in
  let default_errors =
    let name, args = t.default_action in
    match find_action t name with
    | None -> [ err where "default action %s not defined" name ]
    | Some a ->
      if List.length a.params = List.length args then []
      else [ err where "default action %s arity mismatch" name ]
  in
  let dup_actions =
    duplicates (List.map (fun a -> a.act_name) t.tbl_actions)
    |> List.map (fun d -> err where "duplicate action %s" d)
  in
  let size_errors =
    if t.tbl_size <= 0 then [ err where "table size must be positive" ] else []
  in
  key_errors @ dup_actions @ action_errors @ default_errors @ size_errors

let check_element prog = function
  | Table t -> check_table prog t
  | Block b -> check_stmts prog ~where:b.blk_name ~params:[] b.blk_body

let check_parser_rule prog r =
  List.concat_map
    (fun h ->
      match find_header prog h with
      | Some _ -> []
      | None -> [ err r.pr_name "parser references unknown header %s" h ])
    r.pr_headers

let check_map_decl (m : map_decl) =
  (if m.map_size <= 0 then [ err m.map_name "map size must be positive" ] else [])
  @
  if m.key_arity <= 0 then [ err m.map_name "key arity must be positive" ]
  else []

let check_header h =
  duplicates (List.map fst h.hdr_fields)
  |> List.map (fun d -> err h.hdr_name "duplicate field %s" d)

(** Check a whole program. Returns all errors rather than failing fast so
    callers can report everything at once. *)
let check_program prog =
  let dup ns what =
    duplicates ns |> List.map (fun d -> err prog.prog_name "duplicate %s %s" what d)
  in
  let errors =
    dup (List.map (fun h -> h.hdr_name) prog.headers) "header"
    @ List.concat_map check_header prog.headers
    @ dup (List.map (fun (m : map_decl) -> m.map_name) prog.maps) "map"
    @ dup (List.map element_name prog.pipeline) "element"
    @ dup (List.map (fun r -> r.pr_name) prog.parser) "parser rule"
    @ List.concat_map check_map_decl prog.maps
    @ List.concat_map (check_parser_rule prog) prog.parser
    @ List.concat_map (check_element prog) prog.pipeline
  in
  match dedup_errors [] errors with [] -> Ok () | es -> Error es

(** Validate a rule against its table at install time. *)
let check_rule (t : table) (r : rule) =
  let where = t.tbl_name in
  let arity_errors =
    if List.length r.matches <> List.length t.keys then
      [ err where "rule has %d patterns, table has %d keys"
          (List.length r.matches) (List.length t.keys) ]
    else
      List.concat
        (List.map2
           (fun pat (_, kind) ->
             match pat, kind with
             | P_any, _ -> []
             | P_exact _, Exact | P_lpm _, Lpm | P_ternary _, Ternary
             | P_range _, Range -> []
             | _ ->
               [ err where "pattern %s incompatible with %s key"
                   (Pretty.pattern_to_string pat)
                   (Pretty.match_kind_to_string kind) ])
           r.matches t.keys)
  in
  let action_errors =
    match find_action t r.rule_action with
    | None -> [ err where "rule action %s not defined" r.rule_action ]
    | Some a ->
      if List.length a.params = List.length r.rule_args then []
      else
        [ err where "rule action %s expects %d args, got %d" r.rule_action
            (List.length a.params) (List.length r.rule_args) ]
  in
  match arity_errors @ action_errors with [] -> Ok () | es -> Error es
