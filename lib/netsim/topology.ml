(** Topology: node registry, wiring, and routing.

    Nodes are indexed by dense integer ids. Links are created in pairs so
    that every connection is bidirectional. Routing is computed by BFS
    from the destination, which yields all equal-cost next hops for ECMP. *)

type t = {
  sim : Sim.t;
  mutable nodes : Node.t array;
  mutable n : int;
  mutable adj : (int * int) list array; (* id -> (out_port, peer id) *)
}

let create sim = { sim; nodes = [||]; n = 0; adj = [||] }

let node_count t = t.n
let node t id = t.nodes.(id)
let sim t = t.sim

let nodes t = Array.to_list (Array.sub t.nodes 0 t.n)

let hosts t = List.filter (fun n -> n.Node.kind = Node.Host) (nodes t)
let switches t = List.filter (fun n -> n.Node.kind = Node.Switch) (nodes t)

let grow t =
  let cap = Stdlib.max 8 (2 * Array.length t.nodes) in
  let nodes = Array.make cap (Node.create ~id:(-1) ~name:"" ~kind:Node.Host ()) in
  Array.blit t.nodes 0 nodes 0 t.n;
  t.nodes <- nodes;
  let adj = Array.make cap [] in
  Array.blit t.adj 0 adj 0 t.n;
  t.adj <- adj

let add_node t ~name ~kind =
  if t.n = Array.length t.nodes then grow t;
  let node = Node.create ~id:t.n ~name ~kind () in
  t.nodes.(t.n) <- node;
  t.adj.(t.n) <- [];
  t.n <- t.n + 1;
  node

let add_host t name = add_node t ~name ~kind:Node.Host
let add_switch t name = add_node t ~name ~kind:Node.Switch

let next_free_port (node : Node.t) =
  let rec find p =
    if p >= Node.port_count node then p
    else match Node.link node ~port:p with None -> p | Some _ -> find (p + 1)
  in
  find 0

(** Wire [a] and [b] with a pair of opposite links. Returns the port used
    on each side. *)
let connect ?(bandwidth = 10e9) ?(delay = 1e-6) ?(queue_capacity = 256)
    ?(ecn_threshold = 0) t (a : Node.t) (b : Node.t) =
  let pa = next_free_port a and pb = next_free_port b in
  let mk src dst dst_port =
    let name = Printf.sprintf "%s->%s" src.Node.name dst.Node.name in
    let link =
      Link.create ~sim:t.sim ~name ~bandwidth ~delay ~queue_capacity
        ~ecn_threshold ()
    in
    Link.set_deliver link (fun pkt -> Node.receive dst ~in_port:dst_port pkt);
    link
  in
  Node.attach a ~port:pa (mk a b pb);
  Node.attach b ~port:pb (mk b a pa);
  t.adj.(a.Node.id) <- (pa, b.Node.id) :: t.adj.(a.Node.id);
  t.adj.(b.Node.id) <- (pb, a.Node.id) :: t.adj.(b.Node.id);
  (pa, pb)

(** BFS distances from [dst] over the reverse graph (the graph is
    symmetric, so the plain adjacency works). *)
let distances t ~dst =
  let dist = Array.make t.n max_int in
  dist.(dst) <- 0;
  let q = Queue.create () in
  Queue.add dst q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun (_, v) ->
        if dist.(v) = max_int then begin
          dist.(v) <- dist.(u) + 1;
          Queue.add v q
        end)
      t.adj.(u)
  done;
  dist

(** All equal-cost next-hop ports from [src] toward [dst]. *)
let next_hops t ~src ~dst =
  if src = dst then []
  else begin
    let dist = distances t ~dst in
    if dist.(src) = max_int then []
    else
      List.filter_map
        (fun (port, v) -> if dist.(v) = dist.(src) - 1 then Some port else None)
        t.adj.(src)
      |> List.sort compare
  end

(** Deterministic ECMP choice by flow hash. *)
let ecmp_port t ~src ~dst pkt =
  match next_hops t ~src ~dst with
  | [] -> None
  | ports ->
    let h = Packet.flow_hash pkt in
    Some (List.nth ports (h mod List.length ports))

(** One shortest path (node ids, inclusive of endpoints). *)
let shortest_path t ~src ~dst =
  if src = dst then Some [ src ]
  else begin
    let dist = distances t ~dst in
    if dist.(src) = max_int then None
    else begin
      let rec walk u acc =
        if u = dst then List.rev (dst :: acc)
        else
          let next =
            List.find_map
              (fun (_, v) -> if dist.(v) = dist.(u) - 1 then Some v else None)
              t.adj.(u)
          in
          match next with
          | None -> List.rev acc (* unreachable given dist check *)
          | Some v -> walk v (u :: acc)
      in
      Some (walk src [])
    end
  end

(** Plain destination-based forwarding handler for non-programmable
    nodes: routes on [ipv4.dst] interpreted as a node id. *)
let forwarding_handler t (node : Node.t) ~in_port:_ pkt =
  match Packet.field pkt "ipv4" "dst" with
  | None -> ()
  | Some dst64 ->
    let dst = Int64.to_int dst64 in
    if dst = node.Node.id then () (* delivered; host handlers override this *)
    else begin
      match ecmp_port t ~src:node.Node.id ~dst pkt with
      | Some port -> Node.send node ~port pkt
      | None -> node.Node.dropped <- node.Node.dropped + 1
    end

(* ------------------------------------------------------------------ *)
(* Builders                                                            *)
(* ------------------------------------------------------------------ *)

type built = {
  topo : t;
  host_list : Node.t list;
  switch_list : Node.t list;
}

(** [h0 - s0 - s1 - ... - s(n-1) - h1] plus [extra_hosts] on each end
    switch. *)
let linear ~sim ?(switches = 3) ?(link_bandwidth = 10e9) ?(link_delay = 1e-6)
    ?(queue_capacity = 256) ?(ecn_threshold = 0) () =
  let t = create sim in
  let h0 = add_host t "h0" in
  let sw =
    List.init switches (fun i -> add_switch t (Printf.sprintf "s%d" i))
  in
  let h1 = add_host t "h1" in
  let conn a b =
    ignore
      (connect ~bandwidth:link_bandwidth ~delay:link_delay ~queue_capacity
         ~ecn_threshold t a b)
  in
  (match sw with
   | [] -> conn h0 h1
   | first :: _ ->
     conn h0 first;
     let rec wire = function
       | a :: (b :: _ as rest) -> conn a b; wire rest
       | _ -> ()
     in
     wire sw;
     conn (List.nth sw (switches - 1)) h1);
  { topo = t; host_list = [ h0; h1 ]; switch_list = sw }

(** Two-tier leaf/spine fabric. *)
let leaf_spine ~sim ?(spines = 2) ?(leaves = 4) ?(hosts_per_leaf = 2)
    ?(link_bandwidth = 10e9) ?(link_delay = 1e-6) ?(queue_capacity = 256)
    ?(ecn_threshold = 0) () =
  let t = create sim in
  let conn a b =
    ignore
      (connect ~bandwidth:link_bandwidth ~delay:link_delay ~queue_capacity
         ~ecn_threshold t a b)
  in
  let spine_list =
    List.init spines (fun i -> add_switch t (Printf.sprintf "spine%d" i))
  in
  let leaf_list =
    List.init leaves (fun i -> add_switch t (Printf.sprintf "leaf%d" i))
  in
  List.iter (fun leaf -> List.iter (fun spine -> conn leaf spine) spine_list)
    leaf_list;
  let host_list =
    List.concat_map
      (fun li ->
        List.init hosts_per_leaf (fun hi ->
            let h = add_host t (Printf.sprintf "h%d_%d" li hi) in
            conn h (List.nth leaf_list li);
            h))
      (List.init leaves Fun.id)
  in
  { topo = t; host_list; switch_list = spine_list @ leaf_list }
