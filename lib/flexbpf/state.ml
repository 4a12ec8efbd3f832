(** Physical encodings of the logical key/value map (§3.1).

    The paper's point: individual devices implement network state in
    drastically different ways — P4 "extern" registers, PoF flow-state
    instruction sets, Mellanox stateful tables — and a program pinned to
    one encoding cannot migrate. We model all three behind one
    interface, plus a logical snapshot format that is the migration
    representation ("program migration carries its state in this logical
    representation").

    Behavioral differences preserved:
    - Registers: hash-indexed fixed array; distinct keys may alias
      (collision overwrites), reads are always defined.
    - Flow-state ISA: explicit insertion; once full, writes to unknown
      keys are rejected (counted as overflow) — like PoF instruction
      state blocks.
    - Stateful table: keyed by flow key with data-plane auto-insert and
      LRU eviction when full — like Spectrum flow caching. *)

type key = int64 list

type concrete = Registers | Flow_state | Stateful_table

let concrete_of_encoding = function
  | Ast.Enc_registers -> Some Registers
  | Ast.Enc_flow_state -> Some Flow_state
  | Ast.Enc_stateful_table -> Some Stateful_table
  | Ast.Enc_auto -> None

let concrete_to_string = function
  | Registers -> "registers"
  | Flow_state -> "flow_state"
  | Stateful_table -> "stateful_table"

type snapshot = {
  snap_map : string;
  snap_entries : (key * int64) list;
}

(* Keys are short int64 lists and the keyed stores sit on the per-packet
   hot path (every map_get/put/incr), so the generic polymorphic
   hash/compare — which dispatches on runtime tags per block — is
   replaced by a monomorphic hash table over [key]. *)
let key_hash (k : key) =
  (* untagged [int] fold — [Int64] intermediates would box per element;
     [to_int] drops only the sign bit *)
  let rec go acc = function
    | [] -> acc
    | v :: tl -> go ((acc * 31) lxor Int64.to_int v) tl
  in
  go 17 k land max_int

let rec key_equal (a : key) (b : key) =
  match a, b with
  | [], [] -> true
  | x :: xs, y :: ys -> Int64.equal x y && key_equal xs ys
  | _, _ -> false

module KH = Hashtbl.Make (struct
  type t = key
  let equal = key_equal
  let hash = key_hash
end)

type fs_store = {
  fs_tbl : int64 KH.t;
  fs_cap : int;
  mutable overflow_count : int;
}

(* -- LRU residency -------------------------------------------------------- *)

(* The bounded key → value store behind the stateful table and the
   device tier. Until the table first evicts, a touch only stamps the
   key's cell with a fresh tick. The first eviction threads the cells,
   in tick order, into a recency list linked by slot index over a pool
   of [cap] slots with a free list; from then on a touch moves the slot
   to the head and the victim is the tail. Both orders are last-touch
   order, so the victims are exactly those of a smallest-tick scan, and
   every operation after the one O(n log n) build is O(1). A table that
   never evicts (a sketch sized to its key space) never pays for the
   list's scattered relinks. *)
module Lru = struct
  (* [rank]: the last-touch tick before the list is built, the cell's
     slot after. *)
  type 'v cell = { mutable v : 'v; mutable rank : int }

  type 'v t = {
    tbl : 'v cell KH.t;
    mutable cap : int;
    mutable clock : int;
    mutable keys : key array; (* slot → key; empty until the list is built *)
    mutable links : int array; (* [2s]: prev of slot s, [2s+1]: next *)
    mutable head : int; (* most recent slot, -1: none *)
    mutable tail : int;
    mutable free : int; (* free slots chain through next *)
    mutable evicted : int;
  }

  let create ~cap =
    let cap = max 1 cap in
    { tbl = KH.create cap; cap; clock = 0; keys = [||]; links = [||];
      head = -1; tail = -1; free = -1; evicted = 0 }

  let length t = KH.length t.tbl
  let mem t key = KH.mem t.tbl key
  let listed t = Array.length t.keys > 0

  let unlink t s =
    let l = t.links in
    let p = l.(2 * s) and n = l.((2 * s) + 1) in
    if p >= 0 then l.((2 * p) + 1) <- n else t.head <- n;
    if n >= 0 then l.(2 * n) <- p else t.tail <- p

  let push_head t s =
    let l = t.links in
    l.(2 * s) <- -1;
    l.((2 * s) + 1) <- t.head;
    if t.head >= 0 then l.(2 * t.head) <- s else t.tail <- s;
    t.head <- s

  (* The rank of a newly bound [key]: the next tick, or a free slot at
     the head of the list. *)
  let fresh_rank t key =
    if listed t then begin
      let s = t.free in
      t.free <- t.links.((2 * s) + 1);
      t.keys.(s) <- key;
      push_head t s;
      s
    end
    else begin
      t.clock <- t.clock + 1;
      t.clock
    end

  (* The cell of [key], now the most recently touched; raises
     [Not_found] (an option would allocate on every hit). *)
  let use t key =
    let c = KH.find t.tbl key in
    if listed t then begin
      let s = c.rank in
      if s <> t.head then begin
        unlink t s;
        push_head t s
      end
    end
    else begin
      t.clock <- t.clock + 1;
      c.rank <- t.clock
    end;
    c

  let build t =
    let by_tick = KH.fold (fun k c acc -> (c.rank, k, c) :: acc) t.tbl [] in
    t.keys <- Array.make t.cap [];
    t.links <- Array.make (2 * t.cap) (-1);
    for s = t.cap - 1 downto 0 do
      t.links.((2 * s) + 1) <- t.free;
      t.free <- s
    done;
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) by_tick
    |> List.iter (fun (_, k, c) -> c.rank <- fresh_rank t k)

  let release t s =
    unlink t s;
    t.keys.(s) <- [];
    t.links.((2 * s) + 1) <- t.free;
    t.free <- s

  (* Bind an absent [key] as the most recent entry, evicting the least
     recent one first when full; true iff it evicted. *)
  let insert t key v =
    let full = KH.length t.tbl >= t.cap in
    if full then begin
      if not (listed t) then build t;
      let s = t.tail in
      KH.remove t.tbl t.keys.(s);
      release t s;
      t.evicted <- t.evicted + 1
    end;
    KH.replace t.tbl key { v; rank = fresh_rank t key };
    full

  (* Drop [key]; true iff it was bound. *)
  let remove t key =
    match KH.find t.tbl key with
    | c ->
      KH.remove t.tbl key;
      if listed t then release t c.rank;
      true
    | exception Not_found -> false

  (* Unbind everything, keeping the eviction count; [cap] resizes. The
     list goes too, until the next eviction rebuilds it. *)
  let clear ?cap t =
    KH.reset t.tbl;
    Option.iter (fun c -> t.cap <- max 1 c) cap;
    t.keys <- [||];
    t.links <- [||];
    t.head <- -1;
    t.tail <- -1;
    t.free <- -1

  let fold f t acc = KH.fold (fun k c acc -> f k c.v acc) t.tbl acc
end

type store =
  | Reg of (key option * int64) array
  | Fs of fs_store
  | St of int64 Lru.t

type t = { name : string; store : store }

let slot n key = key_hash key mod n

let create ~name ~size (enc : concrete) =
  let size = max 1 size in
  let store =
    match enc with
    | Registers -> Reg (Array.make size (None, 0L))
    | Flow_state ->
      Fs { fs_tbl = KH.create size; fs_cap = size; overflow_count = 0 }
    | Stateful_table -> St (Lru.create ~cap:size)
  in
  { name; store }

let of_decl (decl : Ast.map_decl) ?(default = Stateful_table) () =
  let enc =
    Option.value (concrete_of_encoding decl.encoding) ~default
  in
  create ~name:decl.map_name ~size:decl.map_size enc

let encoding t =
  match t.store with
  | Reg _ -> Registers
  | Fs _ -> Flow_state
  | St _ -> Stateful_table

(* Hot-path probes use [KH.find] + exception rather than [find_opt]:
   the option would allocate on every hit. *)
let get t key =
  match t.store with
  | Reg arr -> snd arr.(slot (Array.length arr) key)
  | Fs f -> (match KH.find f.fs_tbl key with v -> v | exception Not_found -> 0L)
  | St l ->
    (match Lru.use l key with c -> c.v | exception Not_found -> 0L)

let mem t key =
  match t.store with
  | Reg arr ->
    (match fst arr.(slot (Array.length arr) key) with
     | Some k -> key_equal k key
     | None -> false)
  | Fs f -> KH.mem f.fs_tbl key
  | St l -> Lru.mem l key

let put t key v =
  match t.store with
  | Reg arr -> arr.(slot (Array.length arr) key) <- (Some key, v)
  | Fs f ->
    if KH.mem f.fs_tbl key then KH.replace f.fs_tbl key v
    else if KH.length f.fs_tbl < f.fs_cap then KH.replace f.fs_tbl key v
    else f.overflow_count <- f.overflow_count + 1
  | St l ->
    (match Lru.use l key with
     | c -> c.v <- v
     | exception Not_found -> ignore (Lru.insert l key v : bool))

(* Specialised per encoding: [incr] is the per-packet hot operation
   (sketches, counters), and the generic get-then-put pays the key hash
   twice on Registers and probes twice on the keyed stores. *)
let incr t key delta =
  match t.store with
  | Reg arr ->
    let i = slot (Array.length arr) key in
    let v = Int64.add (snd arr.(i)) delta in
    arr.(i) <- (Some key, v);
    v
  | Fs f ->
    (match KH.find f.fs_tbl key with
     | v ->
       let v = Int64.add v delta in
       KH.replace f.fs_tbl key v;
       v
     | exception Not_found ->
       if KH.length f.fs_tbl < f.fs_cap then KH.replace f.fs_tbl key delta
       else f.overflow_count <- f.overflow_count + 1;
       delta)
  | St l ->
    (match Lru.use l key with
     | c ->
       (* written back before it is returned: a let-bound sum would be
          boxed once per use *)
       c.v <- Int64.add c.v delta;
       c.v
     | exception Not_found -> ignore (Lru.insert l key delta : bool); delta)

let del t key =
  match t.store with
  | Reg arr ->
    let i = slot (Array.length arr) key in
    (match fst arr.(i) with
     | Some k when key_equal k key -> arr.(i) <- (None, 0L)
     | _ -> ())
  | Fs f -> KH.remove f.fs_tbl key
  | St l -> ignore (Lru.remove l key : bool)

let entries t =
  match t.store with
  | Reg arr ->
    Array.to_list arr
    |> List.filter_map (function Some k, v -> Some (k, v) | None, _ -> None)
  | Fs f -> KH.fold (fun k v acc -> (k, v) :: acc) f.fs_tbl []
  | St l -> Lru.fold (fun k v acc -> (k, v) :: acc) l []

let size t =
  match t.store with
  | Reg arr ->
    Array.fold_left
      (fun n (k, _) -> if Option.is_some k then n + 1 else n)
      0 arr
  | Fs f -> KH.length f.fs_tbl
  | St l -> Lru.length l

let overflows t =
  match t.store with Fs f -> f.overflow_count | _ -> 0

let evictions t =
  match t.store with St l -> l.Lru.evicted | _ -> 0

(** Logical snapshot: the migration representation. Deterministically
    ordered so snapshots are comparable in tests. *)
let snapshot t =
  { snap_map = t.name; snap_entries = List.sort compare (entries t) }

(** Rebuild a map from a logical snapshot, possibly under a different
    physical encoding — this is exactly the conversion the compiler
    performs when a component migrates to a target with a different
    state implementation. *)
let restore ~name ~size enc snap =
  let t = create ~name ~size enc in
  List.iter (fun (k, v) -> put t k v) snap.snap_entries;
  t

let clear t =
  match t.store with
  | Reg arr -> Array.fill arr 0 (Array.length arr) (None, 0L)
  | Fs f -> KH.reset f.fs_tbl
  | St l -> Lru.clear l

(** Merge a snapshot into an existing map by summing values — used by
    the data-plane migration protocol to fold in-flight updates into the
    destination copy. *)
let merge_add t snap =
  List.iter (fun (k, v) -> ignore (incr t k v)) snap.snap_entries

(* -- Device-tier cache (tiered match tables) -------------------------- *)

(** Bounded on-device tier of a virtualized match table: a key-tuple →
    binding cache with LRU demotion, the Synapse-style "hot rules
    on-device, the rest in a host tier" split. The cache is policy-free
    about what it stores ([Compile] memoizes full first-match lookup
    {e results}, so priority semantics cannot be violated by partial
    residency); this module only owns bounded residency, LRU victim
    selection through the same [Lru] core as the stateful table, and
    the tier telemetry (hits/misses/promotions/evictions/demotions). *)
module Tier = struct
  type 'a t = {
    tc_lru : 'a option Lru.t; (* values stored as [Some v]: a hit returns it *)
    mutable tc_hits : int;
    mutable tc_misses : int;
    mutable tc_promotions : int;
    mutable tc_demotions : int;
  }

  let create ~cap =
    { tc_lru = Lru.create ~cap; tc_hits = 0; tc_misses = 0;
      tc_promotions = 0; tc_demotions = 0 }

  let capacity t = t.tc_lru.Lru.cap
  let resident t = Lru.length t.tc_lru
  let hits t = t.tc_hits
  let misses t = t.tc_misses
  let promotions t = t.tc_promotions
  let evictions t = t.tc_lru.Lru.evicted
  let demotions t = t.tc_demotions

  let find t key =
    match Lru.use t.tc_lru key with
    | c ->
      t.tc_hits <- t.tc_hits + 1;
      c.v
    | exception Not_found ->
      t.tc_misses <- t.tc_misses + 1;
      None

  let mem t key = Lru.mem t.tc_lru key

  let promote t key v =
    match Lru.use t.tc_lru key with
    | c -> c.v <- Some v
    | exception Not_found ->
      if Lru.insert t.tc_lru key (Some v) then
        t.tc_demotions <- t.tc_demotions + 1;
      t.tc_promotions <- t.tc_promotions + 1

  let demote t key =
    if Lru.remove t.tc_lru key then t.tc_demotions <- t.tc_demotions + 1

  let flush ?cap t =
    t.tc_demotions <- t.tc_demotions + Lru.length t.tc_lru;
    Lru.clear ?cap t.tc_lru

  let keys t = Lru.fold (fun k _ acc -> k :: acc) t.tc_lru []
end
