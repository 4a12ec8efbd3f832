(** The incremental-change DSL (§3.2).

    Runtime changes "need not specify a complete network processing
    stack — they are simply additions, deletions, or changes to the
    existing programs". A patch pairs {e selectors} (name-pattern
    matching over the base program, as the paper proposes) with
    structural operations. Applying a patch produces the new program
    plus a [diff] that the incremental compiler turns into a minimal
    reconfiguration plan. *)

(** Glob matching: ['*'] matches any substring, ['?'] any character. *)
val glob_matches : string -> string -> bool

type selector =
  | Sel_name of string (* glob over element names *)
  | Sel_kind of [ `Table | `Block ]
  | Sel_and of selector * selector
  | Sel_or of selector * selector

val selector_matches : selector -> Ast.element -> bool
val pp_selector : Format.formatter -> selector -> unit

type position =
  | At_start
  | At_end
  | Before of selector (* first match *)
  | After of selector (* first match *)

type op =
  | Add_element of position * Ast.element
  | Remove_element of selector (* every match *)
  | Replace_element of selector * Ast.element
  | Set_default of selector * (string * int64 list)
  | Add_parser_rule of Ast.parser_rule
  | Remove_parser_rule of string
  | Add_map of Ast.map_decl
  | Remove_map of string
  | Add_header of Ast.header_decl

type t = { patch_name : string; patch_owner : string; ops : op list }

val v : ?owner:string -> string -> op list -> t

(** What changed, by element name — consumed by
    [Compiler.Incremental.apply_patch]. *)
type diff = {
  added : string list;
  removed : string list;
  modified : string list;
  parser_changed : bool;
  maps_added : string list;
  maps_removed : string list;
}

val empty_diff : diff
val merge_diff : diff -> diff -> diff
val diff_size : diff -> int

type error =
  | Selector_no_match of selector
  | Duplicate_name of string
  | Unknown_name of string
  | Not_a_table of string

val pp_error : Format.formatter -> error -> unit

(** The operations applied in order, without the type check: the
    program and diff [apply] returns when the result type-checks. For
    tests that hold [apply] to [Typecheck.check_program]. *)
val rewrite : t -> Ast.program -> (Ast.program * diff, error) result

(** Apply all operations in order. Precondition: the base program
    type-checks ([Typecheck.check_program] is [Ok]). The result then
    type-checks too, so a patch can never produce an ill-formed
    program; otherwise the patch is rejected with exactly the errors
    [Typecheck.check_program] reports for the result. Only what the ops
    changed is checked — inserted, replaced and re-defaulted elements,
    added maps, headers and parser rules, and the elements that read a
    removed map — so the cost follows the patch, not the program; on a
    finding the whole result is checked for the error list. With an
    ill-typed base the result may be ill-typed and still returned. *)
val apply :
  t -> Ast.program ->
  (Ast.program * diff,
   [ `Patch of error | `Ill_typed of Typecheck.error list ])
  result
