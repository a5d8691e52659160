type t = {
  states : Csa_state.t array;
  s_up : int array;
  d_up : int array;
}

let run topo set =
  let leaves = Cst.Topology.leaves topo in
  if Cst_comm.Comm_set.n set > leaves then
    invalid_arg "Phase1.run: set does not fit the topology";
  if not (Cst_comm.Comm_set.is_right_oriented set) then
    invalid_arg "Phase1.run: set must be right-oriented";
  let num = 2 * leaves in
  let s_up = Array.make num 0 and d_up = Array.make num 0 in
  let states = Array.init leaves (fun _ -> Csa_state.zero ()) in
  (* Step 1.1: leaf reports. *)
  Array.iter
    (fun (c : Cst_comm.Comm.t) ->
      s_up.(Cst.Topology.node_of_pe topo c.src) <- 1;
      d_up.(Cst.Topology.node_of_pe topo c.dst) <- 1)
    (Cst_comm.Comm_set.comms set);
  (* Steps 1.2-1.3: combine children bottom-up. *)
  Cst.Topology.iter_internal_bottom_up topo (fun u ->
      let y = Cst.Topology.left topo u and z = Cst.Topology.right topo u in
      let s_l = s_up.(y) and d_l = d_up.(y) in
      let s_r = s_up.(z) and d_r = d_up.(z) in
      let m = min s_l d_r in
      states.(u) <-
        Csa_state.make ~m ~sl:(s_l - m) ~dl:d_l ~sr:s_r ~dr:(d_r - m);
      s_up.(u) <- s_l - m + s_r;
      d_up.(u) <- d_l + (d_r - m));
  (* A valid right-oriented set leaves no residue at the root. *)
  assert (s_up.(Cst.Topology.root) = 0 && d_up.(Cst.Topology.root) = 0);
  { states; s_up; d_up }

let state t u = t.states.(u)

let total_matched t =
  Array.fold_left (fun acc (s : Csa_state.t) -> acc + s.m) 0 t.states

let up_words_per_message = 2
