(** Glob matching over names: link and service patterns in fault
    plans, element selectors in patches, dRPC discovery. *)

(** [matches ~qmark pattern s]: ['*'] matches any substring; with
    [~qmark:true], ['?'] matches any one character, otherwise it is a
    literal. Every other character matches itself. Costs at most
    O(|pattern| × |s|) steps, however many ['*']s the pattern has. *)
val matches : qmark:bool -> string -> string -> bool
