type crossings = {
  leaves : int;
  up : int array;
  down : int array;
}

let check_leaves ~leaves set =
  if not (Cst_util.Bits.is_power_of_two leaves) then
    invalid_arg "Width: leaves must be a power of two";
  if Comm_set.n set > leaves then
    invalid_arg "Width: set has more PEs than leaves"

let crossings ~leaves set =
  check_leaves ~leaves set;
  let up = Array.make (2 * leaves) 0 in
  let down = Array.make (2 * leaves) 0 in
  Array.iter
    (fun (c : Comm.t) ->
      let a = ref (leaves + c.src) and b = ref (leaves + c.dst) in
      (* Walk both endpoints to their LCA, charging the up links on the
         source side and the down links on the destination side. *)
      while !a <> !b do
        if !a > !b then begin
          up.(!a) <- up.(!a) + 1;
          a := !a / 2
        end
        else begin
          down.(!b) <- down.(!b) + 1;
          b := !b / 2
        end
      done)
    (Comm_set.comms set);
  { leaves; up; down }

(* Sparse congestion.  The counters of a width query live in a
   per-domain scratch: two dense arrays that are all zero between
   calls, sized once to the largest tree seen on the domain, plus the
   list of links the query touched, through which the call resets them.
   A query therefore costs O(M * path length) — the links its paths
   cross — never O(tree). *)
type scratch = {
  mutable up : int array;
  mutable down : int array;
  mutable touched : int array;
}

let scratch =
  Cst_util.Scratch.create (fun () ->
      { up = [||]; down = [||]; touched = Array.make 64 0 })

(* [sparse_width ~first_leaf ~max_node ~parent ~cap set]: leaf [p] is
   node [first_leaf + p], node ids increase parent-to-child and stay
   [<= max_node] on every path; [cap v] is the capacity of [v]'s uplink
   (links with capacity [<= 0] are ignored). *)
let sparse_width ~first_leaf ~max_node ~parent ~cap set =
  Cst_util.Scratch.use scratch @@ fun s ->
  if Array.length s.up <= max_node then begin
    s.up <- Array.make (max_node + 1) 0;
    s.down <- Array.make (max_node + 1) 0
  end;
  let up = s.up and down = s.down in
  let k = ref 0 in
  let touch v =
    if up.(v) = 0 && down.(v) = 0 then begin
      if !k = Array.length s.touched then begin
        let t = Array.make (2 * !k) 0 in
        Array.blit s.touched 0 t 0 !k;
        s.touched <- t
      end;
      s.touched.(!k) <- v;
      incr k
    end
  in
  Array.iter
    (fun (c : Comm.t) ->
      let a = ref (first_leaf + c.src) and b = ref (first_leaf + c.dst) in
      while !a <> !b do
        if !a > !b then begin
          touch !a;
          up.(!a) <- up.(!a) + 1;
          a := parent !a
        end
        else begin
          touch !b;
          down.(!b) <- down.(!b) + 1;
          b := parent !b
        end
      done)
    (Comm_set.comms set);
  let m = ref 0 in
  for i = 0 to !k - 1 do
    let v = s.touched.(i) in
    let c = cap v in
    if c > 0 then begin
      let wu = (up.(v) + c - 1) / c and wd = (down.(v) + c - 1) / c in
      if wu > !m then m := wu;
      if wd > !m then m := wd
    end;
    up.(v) <- 0;
    down.(v) <- 0
  done;
  !m

let width ~leaves set =
  check_leaves ~leaves set;
  sparse_width ~first_leaf:leaves
    ~max_node:((2 * leaves) - 1)
    ~parent:(fun v -> v lsr 1)
    ~cap:(fun _ -> 1)
    set

(* Generalized congestion over an explicit parent table (any tree whose
   ids increase parent-to-child and whose leaves are the contiguous tail
   [first_leaf ..]).  The id-comparison LCA walk of [crossings] carries
   over verbatim: an ancestor always has a smaller id, so climbing the
   larger endpoint converges to the LCA. *)
let crossings_on ~parent ~first_leaf set =
  let num_nodes = Array.length parent - 1 in
  let leaves = num_nodes + 1 - first_leaf in
  if Comm_set.n set > leaves then
    invalid_arg "Width: set has more PEs than leaves";
  let up = Array.make (num_nodes + 1) 0 in
  let down = Array.make (num_nodes + 1) 0 in
  Array.iter
    (fun (c : Comm.t) ->
      let a = ref (first_leaf + c.src) and b = ref (first_leaf + c.dst) in
      while !a <> !b do
        if !a > !b then begin
          up.(!a) <- up.(!a) + 1;
          a := parent.(!a)
        end
        else begin
          down.(!b) <- down.(!b) + 1;
          b := parent.(!b)
        end
      done)
    (Comm_set.comms set);
  { leaves; up; down }

let width_on ~parent ~first_leaf ~leaves ~cap set =
  if Comm_set.n set > leaves then
    invalid_arg "Width: set has more PEs than leaves";
  sparse_width ~first_leaf ~max_node:(first_leaf + leaves - 1) ~parent ~cap
    set

let width_auto set =
  width ~leaves:(Cst_util.Bits.ceil_pow2 (max 2 (Comm_set.n set))) set

let check_against_naive ~leaves set =
  let fast = crossings ~leaves set in
  let ok = ref true in
  (* Node v covers the leaf interval [lo, hi). *)
  let rec interval v =
    if v >= leaves then (v - leaves, v - leaves + 1)
    else
      let lo, _ = interval (2 * v) and _, hi = interval ((2 * v) + 1) in
      (lo, hi)
  in
  for v = 2 to (2 * leaves) - 1 do
    let lo, hi = interval v in
    let inside p = p >= lo && p < hi in
    let u = ref 0 and d = ref 0 in
    Array.iter
      (fun (c : Comm.t) ->
        if inside c.src && not (inside c.dst) then incr u;
        if inside c.dst && not (inside c.src) then incr d)
      (Comm_set.comms set);
    if !u <> fast.up.(v) || !d <> fast.down.(v) then ok := false
  done;
  !ok

type klass =
  | Matched
  | Source_up
  | Dest_down
  | Internal
  | External

let classify ~lo ~mid ~hi (c : Comm.t) =
  if not (Comm.is_right_oriented c) then
    invalid_arg "Width.classify: communication must be right-oriented";
  let inside p = p >= lo && p < hi in
  match (inside c.src, inside c.dst) with
  | false, false -> External
  | true, false -> Source_up
  | false, true -> Dest_down
  | true, true ->
      if c.src < mid && c.dst >= mid then Matched else Internal
