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
  (* Two unboxed float columns, doubled as they fill: a point keeps two
     words and no block of its own. *)
  type t = {
    mutable times : float array;
    mutable values : float array;
    mutable n : int;
  }

  let create () = { times = [||]; values = [||]; n = 0 }

  let add t ~time ~value =
    if t.n = Array.length t.times then begin
      let grow a =
        let b = Array.make (Stdlib.max 16 (2 * t.n)) 0. in
        Array.blit a 0 b 0 t.n;
        b
      in
      t.times <- grow t.times;
      t.values <- grow t.values
    end;
    t.times.(t.n) <- time;
    t.values.(t.n) <- value;
    t.n <- t.n + 1

  let to_list t = List.init t.n (fun i -> (t.times.(i), t.values.(i)))

  (* newest first: [Stdlib.max] is order-sensitive on nan and signed
     zeros *)
  let max_value t =
    let m = ref neg_infinity in
    for i = t.n - 1 downto 0 do m := Stdlib.max !m t.values.(i) done;
    !m

  let last t =
    if t.n = 0 then None else Some (t.times.(t.n - 1), t.values.(t.n - 1))
end
