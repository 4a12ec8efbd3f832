(* Property-based tests (qcheck) on the core data structures and
   invariants: event-queue ordering, state-encoding agreement and
   snapshot roundtrips, pattern matching, expression totality, patch
   reversibility, sketch soundness, placement conservation, and glob
   semantics. *)

open Flexbpf

let to_alcotest = QCheck_alcotest.to_alcotest

(* -- Event queue: pops come out time-sorted ------------------------------- *)

let prop_event_queue_sorted =
  QCheck.Test.make ~name:"event queue pops sorted" ~count:200
    QCheck.(list (float_bound_inclusive 1000.))
    (fun times ->
      let q = Netsim.Event_queue.create () in
      List.iteri
        (fun i time -> Netsim.Event_queue.push q ~time ~seq:i ignore)
        times;
      let rec drain acc =
        if Netsim.Event_queue.is_empty q then List.rev acc
        else begin
          let time = Netsim.Event_queue.min_time q in
          ignore (Netsim.Event_queue.pop_exn q : unit -> unit);
          drain (time :: acc)
        end
      in
      let out = drain [] in
      out = List.sort compare times)

(* -- State encodings -------------------------------------------------------- *)

type map_op = Put of int * int | Incr of int * int | Del of int

let op_gen =
  QCheck.Gen.(
    oneof
      [ map2 (fun k v -> Put (k, v)) (int_bound 30) (int_bound 1000);
        map2 (fun k v -> Incr (k, v)) (int_bound 30) (int_bound 100);
        map (fun k -> Del k) (int_bound 30) ])

let op_print = function
  | Put (k, v) -> Printf.sprintf "put %d %d" k v
  | Incr (k, v) -> Printf.sprintf "incr %d %d" k v
  | Del k -> Printf.sprintf "del %d" k

let ops_arb = QCheck.make ~print:(fun l -> String.concat ";" (List.map op_print l))
    QCheck.Gen.(list_size (int_bound 60) op_gen)

let apply_ops st ops =
  List.iter
    (fun op ->
      match op with
      | Put (k, v) -> State.put st [ Int64.of_int k ] (Int64.of_int v)
      | Incr (k, v) -> ignore (State.incr st [ Int64.of_int k ] (Int64.of_int v))
      | Del k -> State.del st [ Int64.of_int k ])
    ops

(* With capacity above the key range, flow-state and stateful-table
   encodings are observationally identical. *)
let prop_encodings_agree =
  QCheck.Test.make ~name:"flow_state = stateful_table under capacity"
    ~count:300 ops_arb (fun ops ->
      let a = State.create ~name:"m" ~size:64 State.Flow_state in
      let b = State.create ~name:"m" ~size:64 State.Stateful_table in
      apply_ops a ops;
      apply_ops b ops;
      State.snapshot a = State.snapshot b)

(* Snapshot/restore is the identity for exact encodings. *)
let prop_snapshot_roundtrip =
  QCheck.Test.make ~name:"snapshot/restore identity" ~count:300 ops_arb
    (fun ops ->
      let st = State.create ~name:"m" ~size:64 State.Stateful_table in
      apply_ops st ops;
      let snap = State.snapshot st in
      let restored = State.restore ~name:"m" ~size:64 State.Flow_state snap in
      State.snapshot restored = snap)

(* Register aliasing can only merge entries, never invent keys. *)
let prop_registers_subset =
  QCheck.Test.make ~name:"register keys are a subset" ~count:300 ops_arb
    (fun ops ->
      let exact = State.create ~name:"m" ~size:64 State.Stateful_table in
      let regs = State.create ~name:"m" ~size:8 State.Registers in
      apply_ops exact ops;
      apply_ops regs ops;
      let exact_keys = List.map fst (State.entries exact) in
      List.for_all
        (fun (k, _) -> List.mem k exact_keys)
        (State.entries regs))

(* -- Pattern matching --------------------------------------------------------- *)

let prop_lpm_matches_self =
  QCheck.Test.make ~name:"lpm matches its own value" ~count:500
    QCheck.(pair (int_bound 0xFFFFFF) (int_bound 32))
    (fun (v, len) ->
      Interp.match_pattern (Int64.of_int v) (Ast.P_lpm (Int64.of_int v, len)))

let prop_lpm_prefix_semantics =
  QCheck.Test.make ~name:"lpm ignores low bits" ~count:500
    QCheck.(triple (int_bound 0xFFFFFF) (int_range 1 31) (int_bound 0xFFFFFF))
    (fun (v, len, other) ->
      let mask = Int64.shift_left (-1L) (32 - len) in
      let same_prefix =
        Int64.logand (Int64.of_int v) mask = Int64.logand (Int64.of_int other) mask
      in
      Interp.match_pattern (Int64.of_int other) (Ast.P_lpm (Int64.of_int v, len))
      = same_prefix)

let prop_ternary_mask =
  QCheck.Test.make ~name:"ternary masks out ignored bits" ~count:500
    QCheck.(triple (int_bound 0xFFFF) (int_bound 0xFFFF) (int_bound 0xFFFF))
    (fun (v, m, x) ->
      let p = Ast.P_ternary (Int64.of_int v, Int64.of_int m) in
      Interp.match_pattern (Int64.of_int x) p
      = (x land m = v land m))

let prop_range_inclusive =
  QCheck.Test.make ~name:"range is inclusive" ~count:500
    QCheck.(triple small_nat small_nat small_nat)
    (fun (a, b, x) ->
      let lo = min a b and hi = max a b in
      Interp.match_pattern (Int64.of_int x)
        (Ast.P_range (Int64.of_int lo, Int64.of_int hi))
      = (x >= lo && x <= hi))

(* -- Expression evaluation is total --------------------------------------------- *)

let binop_gen =
  QCheck.Gen.oneofl
    [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Band; Ast.Bor;
      Ast.Bxor; Ast.Shl; Ast.Shr; Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt;
      Ast.Ge; Ast.Land; Ast.Lor ]

let prop_binop_total =
  QCheck.Test.make ~name:"eval_binop never raises" ~count:1000
    (QCheck.make QCheck.Gen.(triple binop_gen (map Int64.of_int int) (map Int64.of_int int)))
    (fun (op, x, y) ->
      ignore (Interp.eval_binop op x y);
      true)

let prop_bool_ops_boolean =
  QCheck.Test.make ~name:"comparisons yield 0/1" ~count:500
    (QCheck.make QCheck.Gen.(pair (map Int64.of_int int) (map Int64.of_int int)))
    (fun (x, y) ->
      List.for_all
        (fun op ->
          let r = Interp.eval_binop op x y in
          r = 0L || r = 1L)
        [ Ast.Eq; Ast.Neq; Ast.Lt; Ast.Le; Ast.Gt; Ast.Ge; Ast.Land; Ast.Lor ])

(* -- Glob matching ----------------------------------------------------------------- *)

let ident_gen = QCheck.Gen.(string_size ~gen:(char_range 'a' 'z') (int_range 0 12))

let prop_glob_literal_reflexive =
  QCheck.Test.make ~name:"glob: literal matches itself" ~count:300
    (QCheck.make ~print:Fun.id ident_gen)
    (fun s -> Patch.glob_matches s s)

let prop_glob_star_suffix =
  QCheck.Test.make ~name:"glob: p* matches any extension" ~count:300
    (QCheck.make
       ~print:(fun (a, b) -> a ^ "|" ^ b)
       QCheck.Gen.(pair ident_gen ident_gen))
    (fun (p, ext) -> Patch.glob_matches (p ^ "*") (p ^ ext))

let prop_glob_star_everything =
  QCheck.Test.make ~name:"glob: * matches everything" ~count:300
    (QCheck.make ~print:Fun.id ident_gen)
    (fun s -> Patch.glob_matches "*" s)

let prop_glob_question_length =
  QCheck.Test.make ~name:"glob: ?s match length" ~count:300
    (QCheck.make ~print:Fun.id ident_gen)
    (fun s ->
      Patch.glob_matches (String.make (String.length s) '?') s)

(* The recursive matchers that [Netsim.Glob] replaced, kept as the
   reference semantics: '*' tries every split point, so a pattern with
   many stars backtracks exponentially. [patch_glob] is the old
   [Patch.glob_matches] ('?' = any character), [faults_glob] the old
   [Netsim.Faults.glob_matches] ('*' only). *)
let patch_glob pattern s =
  let np = String.length pattern and ns = String.length s in
  let rec go i j =
    if i = np then j = ns
    else
      match pattern.[i] with
      | '*' -> go (i + 1) j || (j < ns && go i (j + 1))
      | '?' -> j < ns && go (i + 1) (j + 1)
      | c -> j < ns && s.[j] = c && go (i + 1) (j + 1)
  in
  go 0 0

let faults_glob pat s =
  let np = String.length pat and ns = String.length s in
  let rec go p i =
    if p = np then i = ns
    else if pat.[p] = '*' then
      let rec try_from j = j <= ns && (go (p + 1) j || try_from (j + 1)) in
      try_from i
    else i < ns && pat.[p] = s.[i] && go (p + 1) (i + 1)
  in
  go 0 0

(* Short strings over a tiny alphabet with the metacharacters, so
   patterns match often and stars meet stars. *)
let glob_pair_arb =
  let str n = QCheck.Gen.(string_size ~gen:(oneofl [ 'a'; 'b'; '*'; '?' ]) (int_range 0 n)) in
  QCheck.make
    ~print:(fun (p, s) -> Printf.sprintf "%S ~ %S" p s)
    QCheck.Gen.(pair (str 8) (str 10))

let prop_glob_patch_reference =
  QCheck.Test.make ~name:"glob: Patch matcher = recursive reference"
    ~count:2000 glob_pair_arb
    (fun (p, s) -> Patch.glob_matches p s = patch_glob p s)

let prop_glob_faults_reference =
  QCheck.Test.make ~name:"glob: Faults matcher = recursive reference"
    ~count:2000 glob_pair_arb
    (fun (p, s) -> Netsim.Faults.glob_matches p s = faults_glob p s)

(* Ten "*a" then "*b" against 40 a's: the recursive reference takes
   tens of seconds on this; the greedy matcher is linear in stars. *)
let test_glob_many_stars () =
  let pattern = String.concat "" (List.init 10 (fun _ -> "*a")) ^ "*b" in
  let name = String.make 40 'a' in
  let t0 = Unix.gettimeofday () in
  Alcotest.(check bool) "patch: no match" false (Patch.glob_matches pattern name);
  Alcotest.(check bool) "faults: no match" false
    (Netsim.Faults.glob_matches pattern name);
  Alcotest.(check bool) "patch: match" true
    (Patch.glob_matches pattern (name ^ "b"));
  Alcotest.(check bool) "well under a second" true
    (Unix.gettimeofday () -. t0 < 1.)

(* -- Patch reversibility --------------------------------------------------------------- *)

let small_block_gen =
  QCheck.Gen.(
    map
      (fun (name, v) ->
        Builder.block ("x_" ^ name)
          [ Builder.set_meta "v" (Builder.const v) ])
      (pair (string_size ~gen:(char_range 'a' 'z') (int_range 1 6)) (int_bound 100)))

let prop_patch_add_remove_identity =
  QCheck.Test.make ~name:"patch: add then remove = identity" ~count:200
    (QCheck.make small_block_gen) (fun el ->
      let base = Apps.L2l3.program () in
      let name = Ast.element_name el in
      QCheck.assume (Ast.find_element base name = None);
      match
        Patch.apply (Patch.v "add" [ Patch.Add_element (Patch.At_end, el) ]) base
      with
      | Error _ -> false
      | Ok (p1, _) ->
        (match
           Patch.apply (Patch.v "rm" [ Patch.Remove_element (Patch.Sel_name name) ]) p1
         with
         | Error _ -> false
         | Ok (p2, _) ->
           List.map Ast.element_name p2.Ast.pipeline
           = List.map Ast.element_name base.Ast.pipeline))

(* Patched programs always typecheck (apply rejects otherwise). *)
let prop_patch_preserves_typing =
  QCheck.Test.make ~name:"patch results typecheck" ~count:200
    (QCheck.make small_block_gen) (fun el ->
      let base = Apps.L2l3.program () in
      QCheck.assume (Ast.find_element base (Ast.element_name el) = None);
      match
        Patch.apply (Patch.v "add" [ Patch.Add_element (Patch.At_start, el) ]) base
      with
      | Error _ -> false
      | Ok (p, _) -> Typecheck.check_program p = Ok ())

(* -- Incremental patch check ------------------------------------------------ *)

(* [Patch.apply] checks only what a patch changed. Against a base that
   type-checks it must still agree exactly with the whole-program check
   of the rewritten program: same Ok/Error, same error list. *)
let apply_agrees base patch =
  match (Patch.rewrite patch base, Patch.apply patch base) with
  | Error e, Error (`Patch e') -> e = e'
  | Ok (prog, diff), applied ->
    (match (Typecheck.check_program prog, applied) with
     | Ok (), Ok (prog', diff') -> prog = prog' && diff = diff'
     | Error es, Error (`Ill_typed es') -> es = es'
     | _ -> false)
  | Error _, _ -> false

(* Well-typed bases: an app program, and the same with namespaced,
   VLAN-guarded tenant programs composed on top. *)
let patch_bases =
  let l2l3 = Apps.L2l3.program () in
  let tenants =
    [ Apps.Firewall.program ~owner:"t1" ~boundary:100 ();
      Apps.Nat.program ~owner:"t2" ~public:901 ~subnet_lo:10 ~subnet_hi:20 ();
      Apps.Acl.program ~owner:"t3" ~size:4096 () ]
  in
  let composed =
    List.fold_left
      (fun (base, vlan) ext ->
        match Compose.compose ~vlan ~base ext with
        | Ok p -> (p, vlan + 1)
        | Error e ->
          Alcotest.failf "compose: %a" Compose.pp_composition_error e)
      (l2l3, 10) tenants
    |> fst
  in
  List.iter
    (fun p ->
      if Typecheck.check_program p <> Ok () then
        Alcotest.failf "base %s does not type-check" p.Ast.prog_name)
    [ l2l3; composed ];
  [| l2l3; composed |]

(* Random ops drawn from the base's own names plus a few strangers, so
   removals hit live maps, re-added maps change arity, replacements
   collide and defaults name missing actions. *)
let patch_op_gen (base : Ast.program) =
  let open QCheck.Gen in
  let elements = List.map Ast.element_name base.Ast.pipeline in
  let tables =
    List.filter_map
      (function Ast.Table t -> Some t | Ast.Block _ -> None)
      base.Ast.pipeline
  in
  let base_maps = List.map (fun (m : Ast.map_decl) -> m.map_name) base.Ast.maps in
  let maps = "ghost" :: "fresh_map" :: base_maps in
  (* mostly names the op can take, sometimes ones it rejects *)
  let fresh_or names fresh =
    frequency [ (3, oneofl fresh); (1, oneofl names) ]
  in
  let headers = List.map (fun h -> h.Ast.hdr_name) base.Ast.headers in
  let rules = List.map (fun r -> r.Ast.pr_name) base.Ast.parser in
  let reader =
    map3
      (fun name m arity ->
        Builder.block name
          [ Builder.map_incr m (List.init arity (fun i -> Builder.const i)) ])
      (oneofl ("x_new" :: "x_other" :: elements))
      (oneofl maps) (int_range 1 3)
  in
  let sel = map (fun n -> Patch.Sel_name n) (oneofl ("t1/*" :: elements)) in
  oneof
    [ map2
        (fun pos el -> Patch.Add_element (pos, el))
        (oneof
           [ return Patch.At_end; return Patch.At_start;
             map (fun s -> Patch.Before s) sel ])
        reader;
      map (fun s -> Patch.Remove_element s) sel;
      map2 (fun s el -> Patch.Replace_element (s, el)) sel reader;
      (if tables = [] then map (fun s -> Patch.Remove_element s) sel
       else
         map3
           (fun (t : Ast.table) act nargs ->
             Patch.Set_default
               ( Patch.Sel_name t.tbl_name,
                 ( (match act with
                    | Some a -> a.Ast.act_name
                    | None -> "undefined"),
                   List.init nargs Int64.of_int ) ))
           (oneofl tables)
           (oneof
              [ return None;
                map Option.some
                  (oneofl
                     (List.concat_map (fun (t : Ast.table) -> t.tbl_actions) tables)) ])
           (int_range 0 2));
      map3
        (fun name arity size ->
          Patch.Add_map (Builder.map_decl ~key_arity:arity ~size name))
        (fresh_or base_maps [ "fresh_map"; "ghost" ])
        (int_range 0 3) (oneofl [ 0; 64 ]);
      map (fun m -> Patch.Remove_map m) (fresh_or [ "ghost" ] base_maps);
      map2
        (fun name dup ->
          Patch.Add_header
            (Builder.header name
               (if dup then [ ("a", 8); ("a", 8) ] else [ ("a", 8); ("b", 16) ])))
        (fresh_or headers [ "gre" ]) bool;
      map2
        (fun name hs -> Patch.Add_parser_rule (Builder.parser_rule name hs))
        (oneofl [ "parse_x"; "parse_y" ])
        (list_size (int_range 1 3) (oneofl ("gre" :: "nosuch" :: headers)));
      map (fun n -> Patch.Remove_parser_rule n) (oneofl ("parse_x" :: rules)) ]

let pp_patch_op ppf = function
  | Patch.Add_element (_, el) -> Fmt.pf ppf "add %s" (Ast.element_name el)
  | Patch.Remove_element s -> Fmt.pf ppf "rm %a" Patch.pp_selector s
  | Patch.Replace_element (s, el) ->
    Fmt.pf ppf "replace %a by %s" Patch.pp_selector s (Ast.element_name el)
  | Patch.Set_default (s, (a, args)) ->
    Fmt.pf ppf "default %a %s/%d" Patch.pp_selector s a (List.length args)
  | Patch.Add_parser_rule r -> Fmt.pf ppf "add-rule %s" r.Ast.pr_name
  | Patch.Remove_parser_rule n -> Fmt.pf ppf "rm-rule %s" n
  | Patch.Add_map m -> Fmt.pf ppf "add-map %s/%d" m.Ast.map_name m.Ast.key_arity
  | Patch.Remove_map m -> Fmt.pf ppf "rm-map %s" m
  | Patch.Add_header h -> Fmt.pf ppf "add-header %s" h.Ast.hdr_name

let patch_case_arb =
  QCheck.make
    ~print:(fun (i, ops) ->
      Fmt.str "base %d: %a" i Fmt.(list ~sep:(any "; ") pp_patch_op) ops)
    QCheck.Gen.(
      int_bound (Array.length patch_bases - 1) >>= fun i ->
      map (fun ops -> (i, ops))
        (list_size (int_range 1 4) (patch_op_gen patch_bases.(i))))

let prop_patch_check_differential =
  QCheck.Test.make ~name:"patch: incremental check = whole-program check"
    ~count:500 patch_case_arb
    (fun (i, ops) -> apply_agrees patch_bases.(i) (Patch.v "p" ops))

(* The cases the incremental check must not miss, each with the
   outcome the whole-program check gives. *)
let test_patch_check_adversarial () =
  let base = patch_bases.(1) in
  let reads m arity =
    Builder.block "x_new"
      [ Builder.map_incr m (List.init arity (fun i -> Builder.const i)) ]
  in
  let cases =
    [ ( "replace with a colliding name",
        [ Patch.Replace_element
            (Patch.Sel_name "ttl_guard", Builder.block "acl" [ Ast.Nop ]) ],
        false );
      ( "remove a map an untouched element reads",
        [ Patch.Remove_map "port_counters" ],
        false );
      ( "re-add a removed map with another arity",
        [ Patch.Remove_map "port_counters";
          Patch.Add_map (Builder.map_decl ~key_arity:2 ~size:64 "port_counters") ],
        false );
      ( "re-add a removed map with the same arity",
        [ Patch.Remove_map "port_counters";
          Patch.Add_map (Builder.map_decl ~key_arity:1 ~size:32 "port_counters") ],
        true );
      ( "added map with size 0",
        [ Patch.Add_map (Builder.map_decl ~key_arity:1 ~size:0 "fresh_map") ],
        false );
      ( "added element reads an infra map with the wrong arity",
        [ Patch.Add_element (Patch.At_end, reads "port_counters" 2) ],
        false );
      ( "added element reads an infra map correctly",
        [ Patch.Add_element (Patch.At_end, reads "port_counters" 1) ],
        true );
      ( "default to an undefined action",
        [ Patch.Set_default (Patch.Sel_name "acl", ("undefined", [])) ],
        false );
      ( "header with duplicate fields",
        [ Patch.Add_header (Builder.header "gre" [ ("a", 8); ("a", 8) ]) ],
        false );
      ( "header and parser rule",
        [ Patch.Add_header (Builder.header "gre" [ ("proto", 16) ]);
          Patch.Add_parser_rule
            (Builder.parser_rule "parse_gre" [ "ethernet"; "gre" ]) ],
        true );
      ( "parser rule over an unknown header",
        [ Patch.Add_parser_rule
            (Builder.parser_rule "parse_gre" [ "ethernet"; "gre" ]) ],
        false ) ]
  in
  List.iter
    (fun (what, ops, ok) ->
      let patch = Patch.v "p" ops in
      Alcotest.(check bool) (what ^ ": agrees") true (apply_agrees base patch);
      Alcotest.(check bool) (what ^ ": outcome") ok
        (Result.is_ok (Patch.apply patch base)))
    cases

(* -- Count-min sketch soundness ----------------------------------------------------------- *)

let prop_sketch_never_underestimates =
  QCheck.Test.make ~name:"sketch estimate >= true count" ~count:50
    QCheck.(list_of_size (QCheck.Gen.int_range 10 200) (pair (int_bound 20) (int_bound 5)))
    (fun flows ->
      let cfg = { Apps.Cm_sketch.depth = 2; width = 64; map_name = "cms" } in
      let prog = Apps.Cm_sketch.program ~cfg () in
      let env = Interp.create_env prog in
      let exact = Apps.Cm_sketch.Exact.create () in
      List.iter
        (fun (s, d) ->
          let src = Int64.of_int s and dst = Int64.of_int d in
          let pkt =
            Netsim.Packet.create
              [ Netsim.Packet.ethernet ~src ~dst ();
                Netsim.Packet.ipv4 ~src ~dst ();
                Netsim.Packet.tcp ~sport:1L ~dport:2L () ]
          in
          ignore (Interp.run env prog pkt);
          Apps.Cm_sketch.Exact.add exact ~src ~dst ~proto:6L)
        flows;
      let st = Interp.env_map env "cms" in
      List.for_all
        (fun (s, d) ->
          let src = Int64.of_int s and dst = Int64.of_int d in
          Apps.Cm_sketch.estimate cfg st ~src ~dst ~proto:6L
          >= Int64.of_int (Apps.Cm_sketch.Exact.count exact ~src ~dst ~proto:6L))
        flows)

(* -- Resource vectors ------------------------------------------------------------------------ *)

let res_gen =
  QCheck.Gen.(
    map
      (fun (a, b, c, d) ->
        Targets.Resource.v ~sram_bytes:a ~tcam_bytes:b ~action_slots:c
          ~instructions:d ())
      (quad (int_bound 1000) (int_bound 1000) (int_bound 100) (int_bound 100)))

let prop_resource_add_sub =
  QCheck.Test.make ~name:"resource sub inverts add" ~count:300
    (QCheck.make QCheck.Gen.(pair res_gen res_gen))
    (fun (a, b) -> Targets.Resource.sub (Targets.Resource.add a b) b = a)

let prop_resource_fits_monotone =
  QCheck.Test.make ~name:"fits is monotone in capacity" ~count:300
    (QCheck.make QCheck.Gen.(triple res_gen res_gen res_gen))
    (fun (d, cap, extra) ->
      (not (Targets.Resource.fits d cap))
      || Targets.Resource.fits d (Targets.Resource.add cap extra))

(* -- Placement conservation -------------------------------------------------------------------- *)

let prop_placement_all_or_nothing =
  QCheck.Test.make ~name:"placement installs all elements or none" ~count:50
    QCheck.(int_range 1 40)
    (fun n ->
      let path =
        [ Targets.Device.create ~id:"h" Targets.Arch.host_ebpf;
          Targets.Device.create ~id:"s" Targets.Arch.drmt ]
      in
      let prog =
        Builder.program "p"
          (List.init n (fun i ->
               Builder.block (Printf.sprintf "b%d" i)
                 [ Builder.set_meta "x" (Builder.const i) ]))
      in
      let installed () =
        List.fold_left
          (fun acc d -> acc + List.length (Targets.Device.installed_names d))
          0 path
      in
      match Runtime.Reconfig.place ~path prog with
      | Ok _ -> installed () = n
      | Error _ -> installed () = 0)

(* -- Device invariants -------------------------------------------------------------------------- *)

let element_gen =
  QCheck.Gen.(
    map3
      (fun name size kind ->
        let open Builder in
        match kind with
        | 0 ->
          table ("t" ^ name)
            ~keys:[ exact (field "ipv4" "dst") ]
            ~actions:[ action "a" [ Ast.Nop ] ]
            ~default:("a", []) ~size:(64 + size) ()
        | 1 ->
          table ("l" ^ name)
            ~keys:[ lpm (field "ipv4" "dst") ]
            ~actions:[ action "a" [ Ast.Nop ] ]
            ~default:("a", []) ~size:(64 + size) ()
        | _ -> block ("b" ^ name) [ set_meta "x" (const size) ])
      (string_size ~gen:(char_range 'a' 'z') (int_range 3 8))
      (int_bound 20_000) (int_bound 2))

let prop_install_uninstall_identity =
  QCheck.Test.make ~name:"install;uninstall restores device" ~count:200
    (QCheck.make QCheck.Gen.(pair element_gen (oneofl Targets.Arch.all_kinds)))
    (fun (el, kind) ->
      let dev = Targets.Device.create (Targets.Arch.profile_of_kind kind) in
      let before = Targets.Device.utilization dev in
      let ctx = Builder.program "ctx" [ el ] in
      match Targets.Device.install dev ~ctx ~order:0 el with
      | Error _ -> true (* nothing changed: rejected *)
      | Ok _ ->
        Targets.Device.uninstall dev (Ast.element_name el)
        && Targets.Device.installed_names dev = []
        && Targets.Device.utilization dev = before)

let prop_defragment_preserves_contents =
  QCheck.Test.make ~name:"defragment preserves installed set and order"
    ~count:100
    (QCheck.make QCheck.Gen.(list_size (int_range 1 10) element_gen))
    (fun els ->
      (* unique names only *)
      let els =
        List.sort_uniq (fun a b -> compare (Ast.element_name a) (Ast.element_name b)) els
      in
      let dev = Targets.Device.create Targets.Arch.rmt in
      let ctx = Builder.program "ctx" els in
      let installed =
        List.filteri
          (fun i el ->
            match Targets.Device.install dev ~ctx ~order:i el with
            | Ok _ -> true
            | Error _ -> false)
          els
        |> List.map Ast.element_name
      in
      (* remove a few to create holes *)
      List.iteri
        (fun i n -> if i mod 2 = 1 then ignore (Targets.Device.uninstall dev n))
        installed;
      let survivors = Targets.Device.installed_names dev in
      ignore (Targets.Device.defragment dev);
      Targets.Device.installed_names dev = survivors
      &&
      (* execution order (pipeline) intact *)
      List.map Ast.element_name (Targets.Device.program dev).Ast.pipeline
      = survivors)

(* Freeze, mutate, rollback: the checkpoint is the pre-freeze snapshot
   value, so a rollback must restore the resource state, the program
   and the version exactly, whatever ran inside the window. *)
type window_op =
  | W_install of int
  | W_uninstall of int
  | W_defragment
  | W_parser of int

let window_pool =
  let open Builder in
  let maps =
    [ map_decl ~key_arity:1 ~size:4096 "m0";
      map_decl ~key_arity:1 ~size:2048 "m1" ]
  in
  let elements =
    [ table "t0" ~keys:[ exact (field "ipv4" "dst") ]
        ~actions:[ action "a" [ Ast.Nop ] ] ~default:("a", []) ~size:4096 ();
      table "t1" ~keys:[ lpm (field "ipv4" "dst") ]
        ~actions:[ action "a" [ Ast.Nop ] ] ~default:("a", []) ~size:512 ();
      table "t2" ~keys:[ exact (field "ipv4" "src") ]
        ~actions:[ action "a" [ Ast.Nop ] ] ~default:("a", []) ~size:150_000 ();
      block "b0" [ map_incr "m0" [ const 0 ] ];
      block "b1" [ map_incr "m0" [ const 1 ]; map_incr "m1" [ const 1 ] ];
      block "b2" [ set_meta "x" (const 2) ] ]
  in
  program "window" ~maps
    ~parser:[ parser_rule "parse_ipv4" [ "ethernet"; "ipv4" ] ]
    elements

let window_op_gen =
  let n = List.length window_pool.Ast.pipeline in
  QCheck.Gen.(
    frequency
      [ (3, map (fun i -> W_install i) (int_bound (n - 1)));
        (3, map (fun i -> W_uninstall i) (int_bound (n - 1)));
        (1, return W_defragment);
        (1, map (fun i -> W_parser i) (int_bound 3)) ])

let window_op_print = function
  | W_install i -> Printf.sprintf "install %d" i
  | W_uninstall i -> Printf.sprintf "uninstall %d" i
  | W_defragment -> "defragment"
  | W_parser i -> Printf.sprintf "parser %d" i

let apply_window_op dev = function
  | W_install i ->
    ignore
      (Targets.Device.install dev ~ctx:window_pool ~order:i
         (List.nth window_pool.Ast.pipeline i))
  | W_uninstall i ->
    ignore
      (Targets.Device.uninstall dev
         (Ast.element_name (List.nth window_pool.Ast.pipeline i)))
  | W_defragment -> ignore (Targets.Device.defragment dev)
  | W_parser i ->
    ignore
      (Targets.Device.add_parser_rule dev
         (Builder.parser_rule (Printf.sprintf "p%d" i) [ "ethernet" ]))

let prop_rollback_restores_checkpoint =
  let ops = QCheck.Gen.(list_size (int_range 0 8) window_op_gen) in
  QCheck.Test.make ~name:"rollback restores the pre-freeze snapshot"
    ~count:200
    (QCheck.make
       ~print:(fun (kind, before, inside) ->
         Printf.sprintf "%s: [%s] freeze [%s]"
           (Targets.Arch.kind_to_string kind)
           (String.concat "; " (List.map window_op_print before))
           (String.concat "; " (List.map window_op_print inside)))
       QCheck.Gen.(
         triple
           (oneofl
              Targets.Arch.[ Rmt; Elastic_pipe; Tiles; Drmt ])
           ops ops))
    (fun (kind, before, inside) ->
      let dev = Targets.Device.create (Targets.Arch.profile_of_kind kind) in
      List.iter (apply_window_op dev) before;
      let snap = Targets.Device.snapshot dev in
      let prog = Targets.Device.program dev in
      let version = Targets.Device.version dev in
      Targets.Device.freeze dev;
      List.iter (apply_window_op dev) inside;
      Targets.Device.rollback dev;
      Targets.Device.snapshot dev == Targets.Device.snapshot dev
      && Targets.Resource.diff snap (Targets.Device.snapshot dev) = []
      && Targets.Device.program dev = prog
      && Targets.Device.version dev = version)

(* -- ECMP ----------------------------------------------------------------------------------------- *)

let prop_ecmp_port_valid =
  QCheck.Test.make ~name:"ecmp picks a valid next hop" ~count:100
    QCheck.(pair (int_range 2 4) (int_bound 1000))
    (fun (spines, salt) ->
      let sim = Netsim.Sim.create () in
      let built =
        Netsim.Topology.leaf_spine ~sim ~spines ~leaves:2 ~hosts_per_leaf:1 ()
      in
      let topo = built.Netsim.Topology.topo in
      let h0 = List.nth built.Netsim.Topology.host_list 0 in
      let h1 = List.nth built.Netsim.Topology.host_list 1 in
      let leaf = List.nth built.Netsim.Topology.switch_list spines in
      let pkt =
        Netsim.Packet.create
          [ Netsim.Packet.ipv4
              ~src:(Int64.of_int h0.Netsim.Node.id)
              ~dst:(Int64.of_int h1.Netsim.Node.id) ();
            Netsim.Packet.tcp ~sport:(Int64.of_int salt) ~dport:80L () ]
      in
      let hops =
        Netsim.Topology.next_hops topo ~src:leaf.Netsim.Node.id
          ~dst:h1.Netsim.Node.id
      in
      match
        Netsim.Topology.ecmp_port topo ~src:leaf.Netsim.Node.id
          ~dst:h1.Netsim.Node.id pkt
      with
      | Some p -> List.mem p hops
      | None -> false)

(* -- Merge cross product ----------------------------------------------------------------------------- *)

let prop_merge_rule_count =
  QCheck.Test.make ~name:"merged rules = cross product" ~count:100
    QCheck.(pair (int_bound 8) (int_bound 8))
    (fun (na, nb) ->
      let mk n = List.init n (fun i ->
          Builder.rule ~matches:[ Builder.exact_i i ] ~action:("a", []) ())
      in
      List.length (Compiler.Merge.merge_rules (mk na) (mk nb)) = na * nb)

(* -- Surface syntax and the verifier -------------------------------------- *)

(* A richer program generator than test_syntax's block-only one: declared
   maps under every encoding, map get/put/incr/del statements, and a
   match/action table — exercising the printer's full declaration
   surface. Constants are non-negative (a printed "-5" reparses as
   Un (Neg, Const 5)). *)

let vmeta_gen =
  QCheck.Gen.(
    map (fun s -> "m" ^ s) (string_size ~gen:(char_range 'a' 'z') (int_range 1 4)))

let vexpr_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun v -> Ast.Const (Int64.of_int v)) (int_bound 1000);
              map (fun m -> Ast.Meta m) vmeta_gen;
              return (Ast.Field ("ipv4", "src"));
              return (Ast.Field ("tcp", "dport"));
              map (fun k -> Ast.Map_get ("m0", [ Ast.Const (Int64.of_int k) ]))
                (int_bound 63) ]
        else
          oneof
            [ map3
                (fun op a b -> Ast.Bin (op, a, b))
                (oneofl
                   [ Ast.Add; Ast.Sub; Ast.Mul; Ast.Div; Ast.Mod; Ast.Band;
                     Ast.Bor; Ast.Shl; Ast.Shr; Ast.Eq; Ast.Lt; Ast.Ge;
                     Ast.Land; Ast.Lor ])
                (self (n / 2)) (self (n / 2));
              map2
                (fun alg es -> Ast.Hash (alg, es))
                (oneofl [ Ast.Crc16; Ast.Crc32 ])
                (list_size (int_range 1 3) (self (n / 3))) ]))

let vstmt_gen =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [ return Ast.Nop; return Ast.Drop;
              map2 (fun m e -> Ast.Set_meta (m, e)) vmeta_gen vexpr_gen;
              map (fun e -> Ast.Set_field ("ipv4", "ttl", e)) vexpr_gen;
              map2 (fun k v -> Ast.Map_put ("m0", [ Ast.Const (Int64.of_int k) ],
                                            Ast.Const (Int64.of_int v)))
                (int_bound 63) (int_bound 100);
              map3 (fun a b v -> Ast.Map_incr ("m1",
                                               [ Ast.Const (Int64.of_int a);
                                                 Ast.Const (Int64.of_int b) ], v))
                (int_bound 30) (int_bound 30) vexpr_gen;
              map (fun k -> Ast.Map_del ("m0", [ Ast.Const (Int64.of_int k) ]))
                (int_bound 63);
              map (fun e -> Ast.Forward e) vexpr_gen;
              map (fun d -> Ast.Punt d) vmeta_gen ]
        in
        if n <= 0 then leaf
        else
          oneof
            [ leaf;
              map3
                (fun c th el -> Ast.If (c, th, el))
                vexpr_gen
                (list_size (int_bound 3) (self (n / 3)))
                (list_size (int_bound 2) (self (n / 3)));
              map2 (fun k body -> Ast.Loop (1 + k, body)) (int_bound 7)
                (list_size (int_range 1 3) (self (n / 3))) ]))

let vtable_gen =
  QCheck.Gen.(
    map2
      (fun kinds size ->
        Builder.table "t0"
          ~keys:
            (List.map
               (fun kind -> (Ast.Field ("ipv4", "dst"), kind))
               kinds)
          ~actions:
            [ Builder.action "set_port" ~params:[ "p" ]
                [ Ast.Forward (Ast.Param "p") ];
              Builder.action "refuse" [ Ast.Drop ] ]
          ~default:("refuse", []) ~size ())
      (list_size (int_range 1 3)
         (oneofl [ Ast.Exact; Ast.Lpm; Ast.Ternary; Ast.Range ]))
      (int_range 1 512))

let vprogram_gen =
  QCheck.Gen.(
    map3
      (fun encodings blocks tbl ->
        let enc0, enc1 = encodings in
        Builder.program "pgen"
          ~maps:
            [ Builder.map_decl ~encoding:enc0 ~key_arity:1 ~size:64 "m0";
              Builder.map_decl ~encoding:enc1 ~key_arity:2 ~size:128 "m1" ]
          (List.mapi
             (fun i body -> Builder.block (Printf.sprintf "b%d" i) body)
             blocks
           @ [ tbl ]))
      (pair
         (oneofl
            [ Ast.Enc_auto; Ast.Enc_registers; Ast.Enc_flow_state;
              Ast.Enc_stateful_table ])
         (oneofl [ Ast.Enc_auto; Ast.Enc_registers ]))
      (list_size (int_range 1 3) (list_size (int_range 1 4) vstmt_gen))
      vtable_gen)

let vprogram_arb = QCheck.make ~print:Syntax.print vprogram_gen

let prop_full_roundtrip =
  QCheck.Test.make ~name:"print/parse round-trip (maps+tables)" ~count:200
    vprogram_arb
    (fun p ->
      match Syntax.parse_program_result (Syntax.print p) with
      | Error _ -> false
      | Ok p' -> p' = p)

let prop_verifier_deterministic =
  QCheck.Test.make ~name:"verifier is deterministic" ~count:100 vprogram_arb
    (fun p ->
      let d1 = Verifier.check p in
      let d2 = Verifier.check p in
      (* ... and insensitive to physical identity: a structurally equal
         program obtained by reprinting yields the same findings *)
      let d3 =
        match Syntax.parse_program_result (Syntax.print p) with
        | Ok p' -> Verifier.check p'
        | Error _ -> []
      in
      d1 = d2 && d1 = d3)

let prop_verifier_total =
  QCheck.Test.make ~name:"verifier total on ill-typed input" ~count:100
    vprogram_arb
    (fun p ->
      (* break the program: reference an undeclared map *)
      let broken =
        { p with
          Ast.pipeline =
            Builder.block "bad"
              [ Ast.Map_incr ("ghost", [ Ast.Const 0L ], Ast.Const 1L) ]
            :: p.Ast.pipeline }
      in
      match Verifier.check broken with
      | ds -> List.exists (fun d -> d.Diagnostics.code = "FBV000") ds
      | exception _ -> false)

let () =
  Alcotest.run "properties"
    [ ( "event_queue", [ to_alcotest prop_event_queue_sorted ] );
      ( "state",
        [ to_alcotest prop_encodings_agree;
          to_alcotest prop_snapshot_roundtrip;
          to_alcotest prop_registers_subset ] );
      ( "patterns",
        [ to_alcotest prop_lpm_matches_self;
          to_alcotest prop_lpm_prefix_semantics;
          to_alcotest prop_ternary_mask;
          to_alcotest prop_range_inclusive ] );
      ( "eval",
        [ to_alcotest prop_binop_total; to_alcotest prop_bool_ops_boolean ] );
      ( "glob",
        [ to_alcotest prop_glob_literal_reflexive;
          to_alcotest prop_glob_star_suffix;
          to_alcotest prop_glob_star_everything;
          to_alcotest prop_glob_question_length;
          to_alcotest prop_glob_patch_reference;
          to_alcotest prop_glob_faults_reference;
          Alcotest.test_case "many stars" `Quick test_glob_many_stars ] );
      ( "patch",
        [ to_alcotest prop_patch_add_remove_identity;
          to_alcotest prop_patch_preserves_typing;
          to_alcotest prop_patch_check_differential;
          Alcotest.test_case "incremental check: adversarial" `Quick
            test_patch_check_adversarial ] );
      ( "sketch", [ to_alcotest prop_sketch_never_underestimates ] );
      ( "resources",
        [ to_alcotest prop_resource_add_sub;
          to_alcotest prop_resource_fits_monotone ] );
      ( "placement", [ to_alcotest prop_placement_all_or_nothing ] );
      ( "device",
        [ to_alcotest prop_install_uninstall_identity;
          to_alcotest prop_defragment_preserves_contents;
          to_alcotest prop_rollback_restores_checkpoint ] );
      ( "ecmp", [ to_alcotest prop_ecmp_port_valid ] );
      ( "merge", [ to_alcotest prop_merge_rule_count ] );
      ( "syntax",
        [ to_alcotest prop_full_roundtrip ] );
      ( "verifier",
        [ to_alcotest prop_verifier_deterministic;
          to_alcotest prop_verifier_total ] ) ]
