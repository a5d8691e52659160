open Helpers

let width ~leaves pairs = Cst_comm.Width.width ~leaves (set ~n:leaves pairs)

let test_hand_computed () =
  check_int "trace1" 2 (width ~leaves:8 [ (0, 7); (1, 2); (3, 4) ]);
  check_int "pairs" 1 (width ~leaves:8 [ (0, 1); (2, 3); (4, 5); (6, 7) ]);
  check_int "onion" 4 (width ~leaves:8 [ (0, 7); (1, 6); (2, 5); (3, 4) ]);
  check_int "empty" 0 (width ~leaves:8 [])

let test_width_is_not_depth () =
  (* (0,7) and (2,3): nesting depth 2 but no shared directed link. *)
  check_int "depth 2, width 1" 1 (width ~leaves:8 [ (0, 7); (2, 3) ])

let test_left_oriented_supported () =
  check_int "mirrored onion" 4
    (Cst_comm.Width.width ~leaves:8 (set ~n:8 [ (7, 0); (6, 1); (5, 2); (4, 3) ]))

let test_crossings_detail () =
  let s = set ~n:8 [ (0, 7); (1, 2); (3, 4) ] in
  let c = Cst_comm.Width.crossings ~leaves:8 s in
  (* node 4 covers PEs 0-1: sources 0 and 1 go up. *)
  check_int "up at node 4" 2 c.up.(4);
  check_int "down at node 4" 0 c.down.(4);
  (* node 5 covers PEs 2-3: dest 2 comes down, source 3 goes up. *)
  check_int "up at node 5" 1 c.up.(5);
  check_int "down at node 5" 1 c.down.(5);
  (* root children: 2 covers 0-3, 3 covers 4-7. *)
  check_int "up into root" 2 c.up.(2);
  check_int "down from root" 2 c.down.(3)

let test_width_auto () =
  check_int "auto rounds up leaves" 1
    (Cst_comm.Width.width_auto (set ~n:6 [ (0, 5) ]))

let test_leaves_validation () =
  check_raises_invalid "not a power of two" (fun () ->
      Cst_comm.Width.width ~leaves:6 (set ~n:4 [ (0, 1) ]));
  check_raises_invalid "too small" (fun () ->
      Cst_comm.Width.width ~leaves:4 (set ~n:8 [ (0, 7) ]))

let test_classify () =
  let open Cst_comm.Width in
  let k c = classify ~lo:4 ~mid:8 ~hi:12 c in
  check_true "matched" (k (comm (5, 9)) = Matched);
  check_true "internal left" (k (comm (5, 6)) = Internal);
  check_true "internal right" (k (comm (9, 10)) = Internal);
  check_true "source up" (k (comm (5, 14)) = Source_up);
  check_true "dest down" (k (comm (1, 9)) = Dest_down);
  check_true "external" (k (comm (0, 2)) = External);
  check_true "spanning is external" (k (comm (0, 15)) = External)

let test_classify_rejects_left () =
  check_raises_invalid "left-oriented" (fun () ->
      Cst_comm.Width.classify ~lo:0 ~mid:2 ~hi:4 (comm (3, 1)))

let prop_fast_equals_naive =
  prop "crossings agree with naive recomputation" (fun params ->
      let s = set_of_params params in
      let leaves = Cst_util.Bits.ceil_pow2 (max 2 (Cst_comm.Comm_set.n s)) in
      Cst_comm.Width.check_against_naive ~leaves s)

let prop_width_positive =
  prop "width is 0 iff the set is empty" (fun params ->
      let s = set_of_params params in
      Cst_comm.Width.width_auto s = 0 = (Cst_comm.Comm_set.size s = 0))

let prop_width_le_size =
  prop "width <= number of communications" (fun params ->
      let s = set_of_params params in
      Cst_comm.Width.width_auto s <= max 1 (Cst_comm.Comm_set.size s))

(* Sparse widths against the dense per-link oracle: [width] against the
   maximum of [crossings] on the binary shape, [width_on] against the
   capacity-weighted maximum of [crossings_on] over the full parent and
   capacity tables on k-ary and fat shapes — random crossing and
   mixed-orientation sets up to 2^16 leaves. *)
let dense_width_on topo set =
  let cr =
    Cst_comm.Width.crossings_on
      ~parent:(Cst.Topology.parent_table topo)
      ~first_leaf:(Cst.Topology.first_leaf topo)
      set
  in
  let cap = Cst.Topology.cap_table topo in
  let m = ref 0 in
  for v = 2 to Cst.Topology.num_nodes topo do
    let c = cap.(v) in
    m := max !m (max ((cr.up.(v) + c - 1) / c) ((cr.down.(v) + c - 1) / c))
  done;
  !m

let shape_of_choice (kind, e) =
  let fat level_sizes capacities =
    Result.get_ok (Cst.Shape.fat_tree ~level_sizes ~capacities)
  in
  match kind with
  | 0 -> Cst.Shape.binary ~leaves:(1 lsl (1 + e))
  | 1 -> Cst.Shape.kary ~k:4 ~leaves:(1 lsl (2 * (1 + (e mod 8))))
  | 2 ->
      Cst.Shape.kary ~k:3
        ~leaves:(int_of_float (3. ** float_of_int (1 + (e mod 9))))
  | _ ->
      (* two-layer fat trees up to 2^16 leaves under 2^(e/2) switches *)
      let leaves = 1 lsl (2 + (e mod 15)) in
      let mid = 1 lsl (1 + (e mod 15 / 2)) in
      fat [| leaves; mid |] [| 1 + (e mod 3); 1 + (e mod 5) |]

let prop_sparse_equals_dense =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:120
       ~name:"sparse width and width_on equal the dense crossings maximum"
       QCheck.(
         quad (int_bound 1_000_000) (int_bound 3) (int_bound 15)
           (int_bound 100))
       (fun (seed, kind, e, pct) ->
         let shape = shape_of_choice (kind, e) in
         let topo = Cst.Topology.of_shape shape in
         let n = Cst.Topology.leaves topo in
         let rng = Cst_util.Prng.create seed in
         let pairs = max 1 (min 2048 (n / 2 * pct / 100)) in
         let s = Cst_workloads.Gen_arbitrary.random_pairs rng ~n ~pairs in
         let sparse_on =
           Cst_comm.Width.width_on
             ~parent:(Cst.Topology.parent topo)
             ~first_leaf:(Cst.Topology.first_leaf topo)
             ~leaves:n
             ~cap:(Cst.Topology.uplink_cap topo)
             s
         in
         let dense = dense_width_on topo s in
         sparse_on = dense
         && Padr.Schedule.width_of topo s = dense
         && ((not (Cst.Topology.is_binary topo))
            ||
            let cr = Cst_comm.Width.crossings ~leaves:n s in
            let m = Array.fold_left max 0 cr.up in
            Cst_comm.Width.width ~leaves:n s = Array.fold_left max m cr.down)))

let suite =
  [
    case "hand-computed widths" test_hand_computed;
    case "width is not nesting depth" test_width_is_not_depth;
    case "left-oriented supported" test_left_oriented_supported;
    case "crossings detail" test_crossings_detail;
    case "width_auto" test_width_auto;
    case "leaves validation" test_leaves_validation;
    case "classify (figure 4a)" test_classify;
    case "classify rejects left-oriented" test_classify_rejects_left;
    prop_fast_equals_naive;
    prop_width_positive;
    prop_width_le_size;
    prop_sparse_equals_dense;
  ]
