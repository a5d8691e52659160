open Helpers

let left_set ~n pairs = set ~n pairs

let test_simple_left () =
  let s = left_set ~n:8 [ (7, 0); (2, 1); (4, 3) ] in
  let sched = Padr.Left.run_exn (topo 8) s in
  check_true "deliveries"
    (Padr.Schedule.all_deliveries sched = Cst_comm.Comm_set.matching s);
  check_int "width rounds" (Cst_comm.Width.width ~leaves:8 s)
    (Padr.Schedule.num_rounds sched)

let test_rejects_right_oriented () =
  match Padr.Left.run (topo 8) (left_set ~n:8 [ (0, 7) ]) with
  | Error (Padr.Csa.Not_well_nested _) -> ()
  | _ -> Alcotest.fail "expected rejection"

let test_rejects_crossing () =
  match Padr.Left.run (topo 8) (left_set ~n:8 [ (2, 0); (3, 1) ]) with
  | Error (Padr.Csa.Not_well_nested (Cst_comm.Well_nested.Crossing _)) -> ()
  | _ -> Alcotest.fail "expected crossing rejection"

let test_left_onion () =
  (* the mirrored full onion: outermost (n-1, 0) scheduled first *)
  let n = 16 in
  let s =
    left_set ~n (List.init (n / 2) (fun i -> (n - 1 - i, i)))
  in
  let sched = Padr.Left.run_exn (topo n) s in
  check_int "n/2 rounds" (n / 2) (Padr.Schedule.num_rounds sched);
  check_true "outermost first"
    (sched.rounds.(0).deliveries = [ (n - 1, 0) ])

let mirror_of_schedule (s : Padr.Schedule.t) =
  (* reflect a right-oriented schedule's deliveries into left coords *)
  let n = Cst_comm.Comm_set.n s.set in
  List.map
    (fun (a, b) -> (Cst_comm.Mirror.pe ~n a, Cst_comm.Mirror.pe ~n b))
    (Padr.Schedule.all_deliveries s)
  |> List.sort compare

let test_equivalent_to_mirroring () =
  let rng = Cst_util.Prng.create 21 in
  for _ = 1 to 25 do
    let n = 1 lsl (2 + Cst_util.Prng.int rng 6) in
    let right = Cst_workloads.Gen_wn.uniform rng ~n ~density:0.7 in
    let left = Cst_comm.Mirror.set right in
    let t = topo n in
    let via_native = Padr.Left.run_exn t left in
    let via_mirror = Padr.Csa.run_exn t right in
    check_int "same rounds"
      (Padr.Schedule.num_rounds via_mirror)
      (Padr.Schedule.num_rounds via_native);
    check_true "reflected deliveries"
      (Padr.Schedule.all_deliveries via_native
      = mirror_of_schedule via_mirror);
    check_int "same total power" via_mirror.power.total_connects
      via_native.power.total_connects;
    check_int "same max per switch" via_mirror.power.max_connects_per_switch
      via_native.power.max_connects_per_switch;
    (* per-switch ledgers agree through the reflection *)
    let reflected =
      Padr.Schedule.per_switch_connects
        (Padr.Schedule.mirror_power t via_mirror.power)
    in
    check_true "per-switch ledger reflects"
      (reflected = Padr.Schedule.per_switch_connects via_native.power)
  done

let test_per_round_reflection () =
  let right = set ~n:8 [ (0, 7); (1, 2); (3, 4) ] in
  let left = Cst_comm.Mirror.set right in
  let nat = Padr.Left.run_exn (topo 8) left in
  let mir = Padr.Csa.run_exn (topo 8) right in
  Array.iteri
    (fun i (r : Padr.Schedule.round) ->
      let expected =
        List.map
          (fun (a, b) -> (Cst_comm.Mirror.pe ~n:8 a, Cst_comm.Mirror.pe ~n:8 b))
          mir.rounds.(i).deliveries
        |> List.sort compare
      in
      check_true
        (Printf.sprintf "round %d reflects" (i + 1))
        (List.sort compare r.deliveries = expected))
    nat.rounds

let test_shared_net () =
  let t = topo 8 in
  let s = left_set ~n:8 [ (7, 6); (3, 0) ] in
  let net = Cst.Net.create t in
  let first = Padr.Left.run_exn ~net t s in
  let second = Padr.Left.run_exn ~net t s in
  check_true "first pays" (first.power.total_connects > 0);
  check_int "rerun free" 0 second.power.total_connects

let test_verifies () =
  let s = left_set ~n:16 [ (15, 0); (6, 1); (3, 2); (13, 8) ] in
  let sched = Padr.Left.run_exn (topo 16) s in
  (* the generic verifier accepts left-oriented schedules too *)
  let report =
    Padr.Verify.schedule (topo 16) s sched
  in
  check_true ("verifier: " ^ String.concat ";" report.issues) report.ok

let suite =
  [
    case "simple left" test_simple_left;
    case "rejects right-oriented" test_rejects_right_oriented;
    case "rejects crossing" test_rejects_crossing;
    case "left onion" test_left_onion;
    case "equivalent to mirroring" test_equivalent_to_mirroring;
    case "per-round reflection" test_per_round_reflection;
    case "shared net" test_shared_net;
    case "verifies" test_verifies;
  ]
