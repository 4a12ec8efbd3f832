(** Measurement helpers shared by experiments and tests. *)

(** Streaming summary: count / mean / min / max / stddev (Welford). *)
module Summary : sig
  type t

  val create : unit -> t
  val add : t -> float -> unit
  val count : t -> int
  val mean : t -> float
  val min : t -> float
  val max : t -> float
  val stddev : t -> float
  val pp : Format.formatter -> t -> unit
end

(** Time series sampled by experiments (e.g. queue depth over time). *)
module Series : sig
  type t

  val create : unit -> t
  val add : t -> time:float -> value:float -> unit

  (** In insertion (time) order. *)
  val to_list : t -> (float * float) list

  val max_value : t -> float
  val last : t -> (float * float) option
end
