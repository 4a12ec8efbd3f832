(** Well-formedness checking for FlexBPF programs.

    Every name must resolve (headers, fields, maps, actions), map
    accesses must match the declared key arity, action parameters must
    be declared, and loop bounds must be positive and below the
    target-independent ceiling. Rules are checked separately against
    their table at install time. *)

type error = { where : string; what : string }

val pp_error : Format.formatter -> error -> unit

(** Upper bound on [Loop] counts. *)
val max_loop_bound : int

(** Check a whole program; returns every error rather than failing
    fast. *)
val check_program : Ast.program -> (unit, error list) result

(** {2 Parts of a program}

    The checks [check_program] runs on each part, against the names
    [prog] declares. Each returns a subset of [check_program prog]'s
    errors, so a finding here means the whole program is ill-typed.
    [Patch.apply] uses them to check only what a patch changed. *)

val check_element : Ast.program -> Ast.element -> error list
val check_map_decl : Ast.map_decl -> error list
val check_parser_rule : Ast.program -> Ast.parser_rule -> error list

(** Duplicate field names within one header. *)
val check_header : Ast.header_decl -> error list

(** Validate a rule against its table at install time: pattern count
    and kinds must match the keys, the action must exist with the right
    arity. *)
val check_rule : Ast.table -> Ast.rule -> (unit, error list) result
