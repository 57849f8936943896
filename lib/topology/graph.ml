type t = {
  node_count : int;
  link_count : int;
  offsets : int array; (* node -> first index into targets/links *)
  targets : int array; (* flattened neighbor lists, 2 * link_count long *)
  links : int array; (* link id parallel to targets *)
  endpoints_lo : int array; (* link -> smaller endpoint *)
  endpoints_hi : int array;
}

module Builder = struct
  type b = {
    mutable nodes : int;
    mutable edges : (int * int) list; (* normalized lo < hi, newest first *)
    mutable edge_count : int;
    seen : (int * int, unit) Hashtbl.t;
  }

  let create n =
    if n < 0 then invalid_arg "Graph.Builder.create: negative node count";
    { nodes = n; edges = []; edge_count = 0; seen = Hashtbl.create 1024 }

  let add_node b =
    let id = b.nodes in
    b.nodes <- id + 1;
    id

  let add_link b u v =
    if u < 0 || u >= b.nodes || v < 0 || v >= b.nodes then
      invalid_arg "Graph.Builder.add_link: node out of range";
    if u <> v then begin
      let key = if u < v then (u, v) else (v, u) in
      if not (Hashtbl.mem b.seen key) then begin
        Hashtbl.replace b.seen key ();
        b.edges <- key :: b.edges;
        b.edge_count <- b.edge_count + 1
      end
    end

  let node_count b = b.nodes
  let link_count b = b.edge_count
end

let build (b : Builder.b) =
  let node_count = b.Builder.nodes in
  let link_count = b.Builder.edge_count in
  let endpoints_lo = Array.make link_count 0 in
  let endpoints_hi = Array.make link_count 0 in
  (* Edges were prepended; index them oldest-first for determinism. *)
  List.iteri
    (fun i (lo, hi) ->
      let link = link_count - 1 - i in
      endpoints_lo.(link) <- lo;
      endpoints_hi.(link) <- hi)
    b.Builder.edges;
  let degrees = Array.make node_count 0 in
  for link = 0 to link_count - 1 do
    degrees.(endpoints_lo.(link)) <- degrees.(endpoints_lo.(link)) + 1;
    degrees.(endpoints_hi.(link)) <- degrees.(endpoints_hi.(link)) + 1
  done;
  let offsets = Array.make (node_count + 1) 0 in
  for node = 0 to node_count - 1 do
    offsets.(node + 1) <- offsets.(node) + degrees.(node)
  done;
  let cursor = Array.copy offsets in
  let targets = Array.make (2 * link_count) 0 in
  let links = Array.make (2 * link_count) 0 in
  for link = 0 to link_count - 1 do
    let u = endpoints_lo.(link) and v = endpoints_hi.(link) in
    targets.(cursor.(u)) <- v;
    links.(cursor.(u)) <- link;
    cursor.(u) <- cursor.(u) + 1;
    targets.(cursor.(v)) <- u;
    links.(cursor.(v)) <- link;
    cursor.(v) <- cursor.(v) + 1
  done;
  { node_count; link_count; offsets; targets; links; endpoints_lo; endpoints_hi }

let node_count t = t.node_count
let link_count t = t.link_count
let degree t node = t.offsets.(node + 1) - t.offsets.(node)

let mean_degree t =
  if t.node_count = 0 then 0.
  else 2. *. float_of_int t.link_count /. float_of_int t.node_count

let iter_neighbors t node f =
  for i = t.offsets.(node) to t.offsets.(node + 1) - 1 do
    f ~neighbor:t.targets.(i) ~link:t.links.(i)
  done

let link_endpoints t link = (t.endpoints_lo.(link), t.endpoints_hi.(link))

let link_between t u v =
  let found = ref None in
  iter_neighbors t u (fun ~neighbor ~link -> if neighbor = v then found := Some link);
  !found

let end_hosts t =
  let out = ref [] in
  for node = t.node_count - 1 downto 0 do
    if degree t node = 1 then out := node :: !out
  done;
  Array.of_list !out

let components t ~member =
  (* Union-find over the member-member links; each root is its component's
     smallest node, so labels come out numbered in node order. *)
  let parent = Array.init t.node_count Fun.id in
  let rec find node =
    let up = parent.(node) in
    if up = node then node
    else begin
      parent.(node) <- parent.(up);
      find parent.(up)
    end
  in
  for link = 0 to t.link_count - 1 do
    let u = t.endpoints_lo.(link) and v = t.endpoints_hi.(link) in
    if member u && member v then begin
      let ru = find u and rv = find v in
      if ru < rv then parent.(rv) <- ru else if rv < ru then parent.(ru) <- rv
    end
  done;
  let label = Array.make t.node_count (-1) in
  let count = ref 0 in
  for node = 0 to t.node_count - 1 do
    if member node then begin
      let root = find node in
      if root = node then begin
        label.(node) <- !count;
        incr count
      end
      else label.(node) <- label.(root)
    end
  done;
  label

let is_connected t = Array.for_all (fun c -> c = 0) (components t ~member:(fun _ -> true))
