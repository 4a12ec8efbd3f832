(* Model test for the O(1) LRU core behind State's stateful table and
   State.Tier. The tick-scan implementations it replaced are kept here
   as the reference: every touch stamps a cell with a fresh tick and an
   eviction scans the whole table for the smallest one. Random
   operation sequences run against both; after every step the results,
   the counters and the resident entries (in iteration order) must
   agree, so the victims agree too. *)

open Flexbpf
module KH = State.KH

(* -- Reference: tick-scan device tier ---------------------------------- *)

module Ref_tier = struct
  type 'a cell = { mutable tv : 'a; mutable tt : int }

  type 'a t = {
    tbl : 'a cell KH.t;
    mutable cap : int;
    mutable tick : int;
    mutable hits : int;
    mutable misses : int;
    mutable promotions : int;
    mutable evictions : int;
    mutable demotions : int;
  }

  let create ~cap =
    { tbl = KH.create (max 1 cap); cap = max 1 cap; tick = 0; hits = 0;
      misses = 0; promotions = 0; evictions = 0; demotions = 0 }

  let find t key =
    match KH.find t.tbl key with
    | c ->
      t.hits <- t.hits + 1;
      t.tick <- t.tick + 1;
      c.tt <- t.tick;
      Some c.tv
    | exception Not_found ->
      t.misses <- t.misses + 1;
      None

  let evict_lru t =
    let victim =
      KH.fold
        (fun k c acc ->
          match acc with
          | Some (_, best) when best <= c.tt -> acc
          | _ -> Some (k, c.tt))
        t.tbl None
    in
    match victim with
    | Some (k, _) ->
      KH.remove t.tbl k;
      t.evictions <- t.evictions + 1;
      t.demotions <- t.demotions + 1
    | None -> ()

  let promote t key v =
    match KH.find t.tbl key with
    | c ->
      t.tick <- t.tick + 1;
      c.tt <- t.tick;
      c.tv <- v
    | exception Not_found ->
      if KH.length t.tbl >= t.cap then evict_lru t;
      t.tick <- t.tick + 1;
      KH.replace t.tbl key { tv = v; tt = t.tick };
      t.promotions <- t.promotions + 1

  let demote t key =
    if KH.mem t.tbl key then begin
      KH.remove t.tbl key;
      t.demotions <- t.demotions + 1
    end

  let flush ?cap t =
    t.demotions <- t.demotions + KH.length t.tbl;
    KH.reset t.tbl;
    match cap with Some c -> t.cap <- max 1 c | None -> ()

  let keys t = KH.fold (fun k _ acc -> k :: acc) t.tbl []
end

(* -- Reference: tick-scan stateful table ------------------------------- *)

module Ref_table = struct
  type cell = { mutable sv : int64; mutable touched : int }

  type t = {
    tbl : cell KH.t;
    cap : int;
    mutable tick : int;
    mutable evictions : int;
  }

  let create ~size =
    { tbl = KH.create (max 1 size); cap = max 1 size; tick = 0;
      evictions = 0 }

  let touch t c =
    t.tick <- t.tick + 1;
    c.touched <- t.tick

  let evict_lru t =
    let victim =
      KH.fold
        (fun k c acc ->
          match acc with
          | Some (_, best) when best <= c.touched -> acc
          | _ -> Some (k, c.touched))
        t.tbl None
    in
    match victim with
    | Some (k, _) ->
      KH.remove t.tbl k;
      t.evictions <- t.evictions + 1
    | None -> ()

  let insert t key v =
    if KH.length t.tbl >= t.cap then evict_lru t;
    t.tick <- t.tick + 1;
    KH.replace t.tbl key { sv = v; touched = t.tick }

  let get t key =
    match KH.find t.tbl key with
    | c -> touch t c; c.sv
    | exception Not_found -> 0L

  let put t key v =
    match KH.find t.tbl key with
    | c -> c.sv <- v; touch t c
    | exception Not_found -> insert t key v

  let incr t key delta =
    match KH.find t.tbl key with
    | c ->
      c.sv <- Int64.add c.sv delta;
      touch t c;
      c.sv
    | exception Not_found -> insert t key delta; delta

  let del t key = KH.remove t.tbl key
  let clear t = KH.reset t.tbl
  let entries t = KH.fold (fun k c acc -> (k, c.sv) :: acc) t.tbl []

  let restore ~size entries =
    let t = create ~size in
    List.iter (fun (k, v) -> put t k v) (List.sort compare entries);
    t
end

(* -- Differential properties ------------------------------------------- *)

(* Keys of two elements over a range a few times the capacity, so most
   sequences run at capacity and evict. *)
let key k = [ Int64.of_int (k mod 3); Int64.of_int k ]
let key_gen = QCheck.Gen.int_bound 23
let cap_gen = QCheck.Gen.int_range 1 8
let pp_key k = string_of_int k

type tier_op =
  | Find of int
  | Promote of int * int
  | Demote of int
  | Flush of int option

let tier_op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map (fun k -> Find k) key_gen);
        (5, map2 (fun k v -> Promote (k, v)) key_gen small_nat);
        (1, map (fun k -> Demote k) key_gen);
        (1, map (fun c -> Flush c) (opt cap_gen)) ])

let print_tier_op = function
  | Find k -> "find " ^ pp_key k
  | Promote (k, v) -> Printf.sprintf "promote %s %d" (pp_key k) v
  | Demote k -> "demote " ^ pp_key k
  | Flush None -> "flush"
  | Flush (Some c) -> Printf.sprintf "flush ~cap:%d" c

let tier_state (t : int State.Tier.t) =
  ( State.Tier.keys t,
    [ State.Tier.capacity t; State.Tier.resident t; State.Tier.hits t;
      State.Tier.misses t; State.Tier.promotions t; State.Tier.evictions t;
      State.Tier.demotions t ] )

let ref_tier_state (r : int Ref_tier.t) =
  ( Ref_tier.keys r,
    [ r.cap; KH.length r.tbl; r.hits; r.misses; r.promotions; r.evictions;
      r.demotions ] )

let prop_tier_matches_tick_scan =
  QCheck.Test.make ~name:"tier: O(1) LRU = tick-scan reference" ~count:500
    (QCheck.make
       ~print:
         QCheck.Print.(pair int (list print_tier_op))
       QCheck.Gen.(pair cap_gen (list_size (int_range 1 120) tier_op_gen)))
    (fun (cap, ops) ->
      let t = State.Tier.create ~cap and r = Ref_tier.create ~cap in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | Find k -> State.Tier.find t (key k) = Ref_tier.find r (key k)
            | Promote (k, v) ->
              State.Tier.promote t (key k) v;
              Ref_tier.promote r (key k) v;
              true
            | Demote k ->
              State.Tier.demote t (key k);
              Ref_tier.demote r (key k);
              true
            | Flush cap ->
              State.Tier.flush ?cap t;
              Ref_tier.flush ?cap r;
              true
          in
          same_result && tier_state t = ref_tier_state r)
        ops)

type table_op =
  | Get of int
  | Put of int * int
  | Incr of int * int
  | Del of int
  | Clear
  | Restore

let table_op_gen =
  QCheck.Gen.(
    frequency
      [ (5, map (fun k -> Get k) key_gen);
        (4, map2 (fun k v -> Put (k, v)) key_gen small_nat);
        (4, map2 (fun k v -> Incr (k, v)) key_gen small_nat);
        (1, map (fun k -> Del k) key_gen);
        (1, return Clear);
        (1, return Restore) ])

let print_table_op = function
  | Get k -> "get " ^ pp_key k
  | Put (k, v) -> Printf.sprintf "put %s %d" (pp_key k) v
  | Incr (k, v) -> Printf.sprintf "incr %s %d" (pp_key k) v
  | Del k -> "del " ^ pp_key k
  | Clear -> "clear"
  | Restore -> "restore"

let prop_stateful_table_matches_tick_scan =
  QCheck.Test.make ~name:"stateful table: O(1) LRU = tick-scan reference"
    ~count:500
    (QCheck.make
       ~print:QCheck.Print.(pair int (list print_table_op))
       QCheck.Gen.(pair cap_gen (list_size (int_range 1 120) table_op_gen)))
    (fun (size, ops) ->
      let t = ref (State.create ~name:"m" ~size State.Stateful_table) in
      let r = ref (Ref_table.create ~size) in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | Get k -> State.get !t (key k) = Ref_table.get !r (key k)
            | Put (k, v) ->
              State.put !t (key k) (Int64.of_int v);
              Ref_table.put !r (key k) (Int64.of_int v);
              true
            | Incr (k, v) ->
              let d = Int64.of_int v in
              State.incr !t (key k) d = Ref_table.incr !r (key k) d
            | Del k ->
              State.del !t (key k);
              Ref_table.del !r (key k);
              true
            | Clear ->
              State.clear !t;
              Ref_table.clear !r;
              true
            | Restore ->
              t := State.restore ~name:"m" ~size State.Stateful_table
                  (State.snapshot !t);
              r := Ref_table.restore ~size (Ref_table.entries !r);
              true
          in
          let entries = Ref_table.entries !r in
          same_result
          && State.entries !t = entries
          && (State.snapshot !t).State.snap_entries = List.sort compare entries
          && State.size !t = List.length entries
          && State.evictions !t = !r.Ref_table.evictions)
        ops)

(* -- Unit cases ---------------------------------------------------------- *)

(* A hit returns the binding the tier already holds: no allocation. *)
let test_tier_hit_allocates_nothing () =
  let t = State.Tier.create ~cap:4 in
  let k1 = key 1 and k2 = key 2 in
  State.Tier.promote t k1 7;
  State.Tier.promote t k2 8;
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    ignore (State.Tier.find t k1 : int option);
    ignore (State.Tier.find t k2 : int option)
  done;
  let words = Gc.minor_words () -. before in
  Alcotest.(check bool)
    (Printf.sprintf "20k hits allocated %.0f words" words)
    true (words < 100.);
  Alcotest.(check int) "hits" 20_000 (State.Tier.hits t)

(* Every sketch-style incr past capacity evicts the least recent key. *)
let test_stateful_table_cycle_evicts () =
  let s = State.create ~name:"m" ~size:3 State.Stateful_table in
  for i = 0 to 9 do
    ignore (State.incr s [ Int64.of_int i ] 1L)
  done;
  Alcotest.(check int) "evictions" 7 (State.evictions s);
  Alcotest.(check int) "size" 3 (State.size s);
  Alcotest.(check (list (list int64)))
    "three most recent resident"
    [ [ 7L ]; [ 8L ]; [ 9L ] ]
    (List.map fst (State.snapshot s).State.snap_entries)

let () =
  let q = QCheck_alcotest.to_alcotest ~rand:(Random.State.make [| 0x1ce |]) in
  Alcotest.run "lru"
    [ ( "model",
        [ q prop_tier_matches_tick_scan;
          q prop_stateful_table_matches_tick_scan ] );
      ( "unit",
        [ Alcotest.test_case "tier hit allocates nothing" `Quick
            test_tier_hit_allocates_nothing;
          Alcotest.test_case "stateful table cycle evicts" `Quick
            test_stateful_table_cycle_evicts ] ) ]
