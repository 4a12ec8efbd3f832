(** The incremental-change DSL (§3.2).

    Runtime changes "need not specify a complete network processing
    stack — they are simply additions, deletions, or changes to the
    existing programs". A patch pairs *selectors* (name-pattern matching
    over the base program, as the paper proposes) with structural
    operations. Applying a patch produces the new program plus a [diff]
    that the incremental compiler turns into a minimal reconfiguration
    plan. *)

open Ast

let glob_matches = Netsim.Glob.matches ~qmark:true

type selector =
  | Sel_name of string (* glob over element names *)
  | Sel_kind of [ `Table | `Block ]
  | Sel_and of selector * selector
  | Sel_or of selector * selector

let rec selector_matches sel (e : element) =
  match sel with
  | Sel_name pattern -> glob_matches pattern (element_name e)
  | Sel_kind `Table -> (match e with Table _ -> true | Block _ -> false)
  | Sel_kind `Block -> (match e with Block _ -> true | Table _ -> false)
  | Sel_and (a, b) -> selector_matches a e && selector_matches b e
  | Sel_or (a, b) -> selector_matches a e || selector_matches b e

let rec pp_selector ppf = function
  | Sel_name p -> Fmt.pf ppf "name(%s)" p
  | Sel_kind `Table -> Fmt.string ppf "kind(table)"
  | Sel_kind `Block -> Fmt.string ppf "kind(block)"
  | Sel_and (a, b) -> Fmt.pf ppf "(%a & %a)" pp_selector a pp_selector b
  | Sel_or (a, b) -> Fmt.pf ppf "(%a | %a)" pp_selector a pp_selector b

type position =
  | At_start
  | At_end
  | Before of selector
  | After of selector

type op =
  | Add_element of position * element
  | Remove_element of selector
  | Replace_element of selector * element
  | Set_default of selector * (string * int64 list)
  | Add_parser_rule of parser_rule
  | Remove_parser_rule of string
  | Add_map of map_decl
  | Remove_map of string
  | Add_header of header_decl

type t = { patch_name : string; patch_owner : string; ops : op list }

let v ?(owner = "infra") name ops =
  { patch_name = name; patch_owner = owner; ops }

(** What changed, by element name — consumed by Compiler.Incremental. *)
type diff = {
  added : string list;
  removed : string list;
  modified : string list; (* replaced elements or default changes *)
  parser_changed : bool;
  maps_added : string list;
  maps_removed : string list;
}

let empty_diff =
  { added = []; removed = []; modified = []; parser_changed = false;
    maps_added = []; maps_removed = [] }

let merge_diff a b =
  { added = a.added @ b.added;
    removed = a.removed @ b.removed;
    modified = a.modified @ b.modified;
    parser_changed = a.parser_changed || b.parser_changed;
    maps_added = a.maps_added @ b.maps_added;
    maps_removed = a.maps_removed @ b.maps_removed }

let diff_size d =
  List.length d.added + List.length d.removed + List.length d.modified

type error =
  | Selector_no_match of selector
  | Duplicate_name of string
  | Unknown_name of string
  | Not_a_table of string

let pp_error ppf = function
  | Selector_no_match s -> Fmt.pf ppf "selector %a matches nothing" pp_selector s
  | Duplicate_name n -> Fmt.pf ppf "name %s already exists" n
  | Unknown_name n -> Fmt.pf ppf "unknown name %s" n
  | Not_a_table n -> Fmt.pf ppf "%s is not a table" n

(* Insert [el] relative to the first element matching the selector. *)
let insert_at position el pipeline =
  let insert sel ~after =
    let rec go = function
      | [] -> None
      | e :: rest when selector_matches sel e ->
        Some (if after then e :: el :: rest else el :: e :: rest)
      | e :: rest -> Option.map (fun r -> e :: r) (go rest)
    in
    match go pipeline with
    | Some p -> Ok p
    | None -> Error (Selector_no_match sel)
  in
  match position with
  | At_start -> Ok (el :: pipeline)
  | At_end -> Ok (pipeline @ [ el ])
  | Before sel -> insert sel ~after:false
  | After sel -> insert sel ~after:true

let apply_op (prog, diff) op =
  match op with
  | Add_element (position, el) ->
    let name = element_name el in
    if List.exists (fun e -> element_name e = name) prog.pipeline then
      Error (Duplicate_name name)
    else
      Result.map
        (fun pipeline ->
          ({ prog with pipeline },
           merge_diff diff { empty_diff with added = [ name ] }))
        (insert_at position el prog.pipeline)
  | Remove_element sel ->
    let removed =
      List.filter (selector_matches sel) prog.pipeline |> List.map element_name
    in
    if removed = [] then Error (Selector_no_match sel)
    else
      Ok
        ({ prog with
           pipeline =
             List.filter (fun e -> not (selector_matches sel e)) prog.pipeline },
         merge_diff diff { empty_diff with removed })
  | Replace_element (sel, el) ->
    let modified =
      List.filter (selector_matches sel) prog.pipeline |> List.map element_name
    in
    if modified = [] then Error (Selector_no_match sel)
    else
      Ok
        ({ prog with
           pipeline =
             List.map
               (fun e -> if selector_matches sel e then el else e)
               prog.pipeline },
         merge_diff diff { empty_diff with modified })
  | Set_default (sel, default_action) ->
    let matched = List.filter (selector_matches sel) prog.pipeline in
    if matched = [] then Error (Selector_no_match sel)
    else if List.exists (function Block _ -> true | Table _ -> false) matched
    then
      Error
        (Not_a_table
           (element_name
              (List.find (function Block _ -> true | _ -> false) matched)))
    else
      Ok
        ({ prog with
           pipeline =
             List.map
               (fun e ->
                 match e with
                 | Table t when selector_matches sel e ->
                   Table { t with default_action }
                 | e -> e)
               prog.pipeline },
         merge_diff diff
           { empty_diff with modified = List.map element_name matched })
  | Add_parser_rule r ->
    if List.exists (fun x -> x.pr_name = r.pr_name) prog.parser then
      Error (Duplicate_name r.pr_name)
    else
      Ok
        ({ prog with parser = prog.parser @ [ r ] },
         merge_diff diff { empty_diff with parser_changed = true })
  | Remove_parser_rule name ->
    if List.exists (fun x -> x.pr_name = name) prog.parser then
      Ok
        ({ prog with parser = List.filter (fun x -> x.pr_name <> name) prog.parser },
         merge_diff diff { empty_diff with parser_changed = true })
    else Error (Unknown_name name)
  | Add_map m ->
    if List.exists (fun (x : map_decl) -> x.map_name = m.map_name) prog.maps
    then Error (Duplicate_name m.map_name)
    else
      Ok
        ({ prog with maps = prog.maps @ [ m ] },
         merge_diff diff { empty_diff with maps_added = [ m.map_name ] })
  | Remove_map name ->
    if List.exists (fun (x : map_decl) -> x.map_name = name) prog.maps then
      Ok
        ({ prog with
           maps = List.filter (fun (x : map_decl) -> x.map_name <> name) prog.maps },
         merge_diff diff { empty_diff with maps_removed = [ name ] })
    else Error (Unknown_name name)
  | Add_header h ->
    if List.exists (fun x -> x.hdr_name = h.hdr_name) prog.headers then
      Error (Duplicate_name h.hdr_name)
    else
      Ok ({ prog with headers = prog.headers @ [ h ] }, diff)

(* Does the part of [prog] that [ops] changed type-check? [prog] is the
   patched program and the base it came from type-checked, so only
   these parts can hold an error: elements the ops inserted, replaced
   or gave a new default (and the name uniqueness a replacement can
   break); added maps, headers and parser rules; and every element that
   reads a map an op removed, which may be gone or re-added with another
   arity. Each part is checked against the whole patched program, so a
   finding is always an error of [Typecheck.check_program prog]. *)
let changes_typecheck ops prog =
  let named n e = element_name e = n in
  let touched e =
    List.exists
      (function
        | Add_element (_, el) | Replace_element (_, el) ->
          named (element_name el) e
        | Set_default (sel, _) -> selector_matches sel e
        | _ -> false)
      ops
  in
  let removed_maps =
    List.filter_map (function Remove_map m -> Some m | _ -> None) ops
  in
  let reads_removed e =
    removed_maps <> []
    && List.exists (fun m -> List.mem m removed_maps) (Compose.element_maps e)
  in
  let part_ok = function
    | Replace_element (_, el) ->
      List.length (List.filter (named (element_name el)) prog.pipeline) = 1
    | Add_map m ->
      List.for_all
        (fun (d : map_decl) ->
          d.map_name <> m.map_name || Typecheck.check_map_decl d = [])
        prog.maps
    | Add_header h ->
      List.for_all
        (fun d -> d.hdr_name <> h.hdr_name || Typecheck.check_header d = [])
        prog.headers
    | Add_parser_rule r ->
      List.for_all
        (fun d ->
          d.pr_name <> r.pr_name || Typecheck.check_parser_rule prog d = [])
        prog.parser
    | _ -> true
  in
  List.for_all part_ok ops
  && List.for_all
       (fun e ->
         not (touched e || reads_removed e) || Typecheck.check_element prog e = [])
       prog.pipeline

(* The structural rewrite alone, unchecked. *)
let rewrite patch prog =
  List.fold_left
    (fun acc op -> Result.bind acc (fun acc -> apply_op acc op))
    (Ok (prog, empty_diff)) patch.ops

(** Apply all operations in order to a base that type-checks; see the
    interface for the contract. *)
let apply patch prog =
  match rewrite patch prog with
  | Error e -> Error (`Patch e)
  | Ok (prog', diff) ->
    if changes_typecheck patch.ops prog' then Ok (prog', diff)
    else
      match Typecheck.check_program prog' with
      | Ok () -> Ok (prog', diff)
      | Error errs -> Error (`Ill_typed errs)
