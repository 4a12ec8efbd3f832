(* Greedy star backtracking. On a mismatch only the most recent '*' is
   widened by one character: an earlier star never needs to take more,
   since the later star can absorb whatever it would have. [star] is
   the index of that '*' in the pattern (-1: none yet) and [mark] the
   position in [s] where its match currently ends. *)
let matches ~qmark pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec only_stars i = i = np || (pattern.[i] = '*' && only_stars (i + 1)) in
  let rec go i j star mark =
    if j = ns then only_stars i
    else if i < np && pattern.[i] = '*' then go (i + 1) j i j
    else if i < np && ((qmark && pattern.[i] = '?') || pattern.[i] = s.[j])
    then go (i + 1) (j + 1) star mark
    else if star >= 0 then go (star + 1) (mark + 1) star (mark + 1)
    else false
  in
  go 0 0 (-1) 0
