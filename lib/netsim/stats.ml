(** Measurement helpers shared by experiments and tests. *)

(** Streaming summary: count / mean / min / max / variance (Welford). *)
module Summary = struct
  type t = {
    mutable n : int;
    mutable mean : float;
    mutable m2 : float;
    mutable min : float;
    mutable max : float;
  }

  let create () = { n = 0; mean = 0.; m2 = 0.; min = infinity; max = neg_infinity }

  let add t x =
    t.n <- t.n + 1;
    let delta = x -. t.mean in
    t.mean <- t.mean +. (delta /. float_of_int t.n);
    t.m2 <- t.m2 +. (delta *. (x -. t.mean));
    if x < t.min then t.min <- x;
    if x > t.max then t.max <- x

  let count t = t.n
  let mean t = if t.n = 0 then 0. else t.mean
  let min t = if t.n = 0 then 0. else t.min
  let max t = if t.n = 0 then 0. else t.max

  let stddev t =
    if t.n < 2 then 0. else sqrt (t.m2 /. float_of_int (t.n - 1))

  let pp ppf t =
    Fmt.pf ppf "n=%d mean=%.6g min=%.6g max=%.6g sd=%.6g" t.n (mean t)
      (min t) (max t) (stddev t)
end

(** Time series sampled by experiments (e.g. queue depth over time). *)
module Series = struct
  type t = { mutable points : (float * float) list }

  let create () = { points = [] }
  let add t ~time ~value = t.points <- (time, value) :: t.points
  let to_list t = List.rev t.points

  let max_value t =
    List.fold_left (fun acc (_, v) -> Stdlib.max acc v) neg_infinity t.points

  let last t = match t.points with [] -> None | (ti, v) :: _ -> Some (ti, v)
end
