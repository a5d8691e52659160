open Helpers

(* Empirical form of the paper's headline contrast (Theorem 8 and the
   discussion of Roy et al.): per-switch configuration cost as the width
   grows.  CSA must stay flat; ID scheduling must grow linearly. *)

let sweep algo_run widths =
  List.map
    (fun w ->
      let n = 256 in
      let t = topo n in
      let s = Cst_workloads.Gen_wn.onion ~n ~width:w in
      let sched : Padr.Schedule.t = algo_run t s in
      (float_of_int w, float_of_int sched.power.max_writes_per_switch))
    widths

let widths = [ 2; 4; 8; 16; 32; 64; 128 ]

let test_csa_flat_in_width () =
  let pts = Array.of_list (sweep (fun t s -> Padr.Csa.run_exn t s) widths) in
  let fit = Cst_util.Stats.linear_fit pts in
  check_true
    (Printf.sprintf "slope ~ 0 (got %.4f)" fit.slope)
    (Float.abs fit.slope < 0.01)

let test_roy_linear_in_width () =
  let pts = Array.of_list (sweep Cst_baselines.Roy_id.run widths) in
  let fit = Cst_util.Stats.linear_fit pts in
  check_true
    (Printf.sprintf "slope ~ 1 (got %.4f)" fit.slope)
    (fit.slope > 0.9 && fit.slope < 1.1);
  check_true "good fit" (fit.r2 > 0.99)

let test_csa_constant_across_n () =
  (* Theorem 8's constant must not secretly grow with the tree size. *)
  let maxima =
    List.map
      (fun n ->
        let rng = Cst_util.Prng.create 2024 in
        let worst = ref 0 in
        for _ = 1 to 10 do
          let s = Cst_workloads.Gen_wn.uniform rng ~n ~density:1.0 in
          let sched = Padr.schedule_exn s in
          worst := max !worst sched.power.max_connects_per_switch
        done;
        !worst)
      [ 32; 128; 512; 2048 ]
  in
  List.iter
    (fun m ->
      check_true
        (Printf.sprintf "within bound (%d)" m)
        (m <= Padr.Verify.default_power_bound))
    maxima

let test_meter_of_log () =
  (* The meter is a pure fold of the log's charge events. *)
  let log = Cst.Exec_log.create () in
  Cst.Exec_log.connect log ~node:2 ~out_port:Cst.Side.P ~in_port:Cst.Side.L;
  Cst.Exec_log.disconnect log ~node:2 ~out_port:Cst.Side.P ~in_port:Cst.Side.L;
  Cst.Exec_log.connect log ~node:2 ~out_port:Cst.Side.P ~in_port:Cst.Side.R;
  Cst.Exec_log.connect log ~node:2 ~out_port:Cst.Side.R ~in_port:Cst.Side.P;
  Cst.Exec_log.write_config log ~node:3 ~count:5;
  let m = Cst.Power_meter.of_log ~num_nodes:4 log in
  check_int "connects" 3 (Cst.Power_meter.connects m ~node:2);
  check_int "disconnects" 1 (Cst.Power_meter.disconnects m ~node:2);
  check_int "writes" 5 (Cst.Power_meter.writes m ~node:3);
  check_int "total" 3 (Cst.Power_meter.total_connects m);
  check_int "max connects" 3 (Cst.Power_meter.max_connects_per_switch m);
  check_int "max writes" 5 (Cst.Power_meter.max_writes_per_switch m);
  check_int "max events" 4 (Cst.Power_meter.max_events_per_switch m)

let test_meter_cursors () =
  (* Cursors replace the old copy/diff_since machinery: a run records
     [length log] before it starts and derives its share with [~from];
     [~upto] recovers the frozen prefix. *)
  let log = Cst.Exec_log.create () in
  Cst.Exec_log.connect log ~node:1 ~out_port:Cst.Side.P ~in_port:Cst.Side.L;
  Cst.Exec_log.connect log ~node:1 ~out_port:Cst.Side.R ~in_port:Cst.Side.P;
  let cursor = Cst.Exec_log.length log in
  Cst.Exec_log.connect log ~node:1 ~out_port:Cst.Side.L ~in_port:Cst.Side.P;
  Cst.Exec_log.connect log ~node:1 ~out_port:Cst.Side.P ~in_port:Cst.Side.R;
  Cst.Exec_log.connect log ~node:1 ~out_port:Cst.Side.R ~in_port:Cst.Side.L;
  Cst.Exec_log.disconnect log ~node:1 ~out_port:Cst.Side.R ~in_port:Cst.Side.L;
  Cst.Exec_log.write_config log ~node:2 ~count:4;
  let d = Cst.Power_meter.of_log ~from:cursor ~num_nodes:3 log in
  check_int "delta connects" 3 (Cst.Power_meter.connects d ~node:1);
  check_int "delta disconnects" 1 (Cst.Power_meter.disconnects d ~node:1);
  check_int "delta writes" 4 (Cst.Power_meter.writes d ~node:2);
  let baseline = Cst.Power_meter.of_log ~upto:cursor ~num_nodes:3 log in
  check_int "prefix frozen" 2 (Cst.Power_meter.connects baseline ~node:1)

let test_shared_net_rerun_is_free () =
  (* Running the same width-1 set twice on one warm network: the second
     run finds every configuration already in place — zero power (pure
     PADR).  Width 1 so that the single round's configuration is exactly
     what the warm network still holds. *)
  let t = topo 16 in
  let s = set ~n:16 [ (0, 7); (8, 11); (13, 15) ] in
  let net = Cst.Net.create t in
  let first = Padr.Csa.run_exn ~net t s in
  let second = Padr.Csa.run_exn ~net t s in
  check_true "first run pays" (first.power.total_connects > 0);
  check_int "second run free" 0 second.power.total_connects;
  check_int "second run no writes" 0 second.power.total_writes;
  check_true "second run still delivers"
    (Padr.Schedule.all_deliveries second = Cst_comm.Comm_set.matching s)

let test_shared_net_topology_mismatch () =
  let net = Cst.Net.create (topo 8) in
  check_raises_invalid "mismatch" (fun () ->
      Padr.Csa.run_exn ~net (topo 16) (set ~n:16 [ (0, 1) ]))

let test_disconnect_tracking () =
  (* A full onion forces the root's l_i->r_o to persist across every
     round: zero disconnects at the root. *)
  let s = Padr.schedule_exn (Cst_workloads.Patterns.full_onion_exn ~n:32) in
  check_true "few disconnects"
    (s.power.total_disconnects <= s.power.total_connects)

let test_power_floor_met_on_single_comm () =
  let t = topo 16 in
  let st = set ~n:16 [ (0, 15) ] in
  let sched = Padr.Csa.run_exn t st in
  (* A single communication: power = path length exactly. *)
  check_int "exact floor" (Cst_baselines.Bounds.min_total_connects t st)
    sched.power.total_connects

(* --- the sparse summary against the dense meter -------------------

   [Schedule.power_of_log] builds the power summary in one pass over a
   log's events and keeps only the busy switches.  The dense
   [Cst.Power_meter] stays as its oracle: on every producer's log, and
   through [combine_power] and [mirror_power], the summary must agree
   with the dense ledger on every total, every maximum and every
   per-switch count. *)

type ledger = { c : int array; d : int array; w : int array }

let ledger_of_meter m =
  {
    c = Cst.Power_meter.per_switch_connects m;
    d = Cst.Power_meter.per_switch_disconnects m;
    w = Cst.Power_meter.per_switch_writes m;
  }

let add_ledgers x y =
  let add a b = Array.mapi (fun i v -> v + b.(i)) a in
  { c = add x.c y.c; d = add x.d y.d; w = add x.w y.w }

(* The ledger of a run on the mirrored tree, in original coordinates. *)
let mirror_ledger topo x =
  let remap a =
    Array.mapi
      (fun i v ->
        if i >= 1 && i <= Cst.Topology.num_nodes topo then
          a.(Cst.Topology.mirror_node topo i)
        else v)
      a
  in
  { c = remap x.c; d = remap x.d; w = remap x.w }

let sum_of a = Array.fold_left ( + ) 0 a
let max_of a = Array.fold_left Int.max 0 a

let agrees (p : Padr.Schedule.power) x =
  p.total_connects = sum_of x.c
  && p.total_disconnects = sum_of x.d
  && p.total_writes = sum_of x.w
  && p.max_connects_per_switch = max_of x.c
  && p.max_writes_per_switch = max_of x.w
  && p.max_events_per_switch = max_of (Array.mapi (fun i v -> v + x.d.(i)) x.c)
  && Padr.Schedule.per_switch_connects p = x.c
  && Padr.Schedule.per_switch_disconnects p = x.d
  && Padr.Schedule.per_switch_writes p = x.w

(* The summary of a log range against the meter of the same range, plus
   the meter's own totals and maxima. *)
let summary_agrees ?from ?upto ~num_nodes log =
  let m = Cst.Power_meter.of_log ?from ?upto ~num_nodes log in
  let p = Padr.Schedule.power_of_log ?from ?upto ~num_nodes log in
  agrees p (ledger_of_meter m)
  && p.total_connects = Cst.Power_meter.total_connects m
  && p.total_writes = Cst.Power_meter.total_writes m
  && p.max_connects_per_switch = Cst.Power_meter.max_connects_per_switch m
  && p.max_writes_per_switch = Cst.Power_meter.max_writes_per_switch m
  && p.max_events_per_switch = Cst.Power_meter.max_events_per_switch m
  && p = Padr.Schedule.power_of_meter m

let gen_case =
  QCheck.make
    ~print:(fun (seed, e, d) ->
      Printf.sprintf "seed=%d n=2^%d density=%.2f" seed e d)
    QCheck.Gen.(
      triple (int_bound 1_000_000) (int_range 2 10) (float_bound_inclusive 1.0))

(* Every producer's log: the summary its schedule carries, and any
   sub-range of the log, equal the dense meter. *)
let test_summary_matches_meter =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"power_of_log = dense meter (csa, engine, cap_engine, roy-id)"
       gen_case (fun (seed, e, density) ->
         let n = 1 lsl e in
         let rng = Cst_util.Prng.create seed in
         let s = Cst_workloads.Gen_wn.uniform rng ~n ~density in
         let t = topo n in
         let num_nodes = Cst.Topology.num_nodes t in
         let producer run =
           let log = Cst.Exec_log.create () in
           let (sched : Padr.Schedule.t) = run log in
           let len = Cst.Exec_log.length log in
           let cut = Cst_util.Prng.int rng (len + 1) in
           agrees sched.power
             (ledger_of_meter (Cst.Power_meter.of_log ~num_nodes log))
           && summary_agrees ~num_nodes log
           && summary_agrees ~upto:cut ~num_nodes log
           && summary_agrees ~from:cut ~num_nodes log
         in
         let kary =
           (* a 4-ary shape over the nearest power of four *)
           let leaves = if e mod 2 = 0 then n else 2 * n in
           Cst.Topology.of_shape (Cst.Shape.kary ~k:4 ~leaves)
         in
         let s4 =
           Cst_comm.Comm_set.create_exn ~n:(Cst.Topology.leaves kary)
             (Array.to_list (Cst_comm.Comm_set.comms s))
         in
         producer (fun log -> Padr.Csa.run_exn ~log t s)
         && producer (fun log -> fst (Padr.Engine.run_exn ~log t s))
         && producer (fun log -> Cst_baselines.Registry.roy_id.run ~log t s)
         && (let log = Cst.Exec_log.create () in
             let sched, _ = Padr.Cap_engine.run_exn ~log kary s4 in
             let num_nodes = Cst.Topology.num_nodes kary in
             agrees sched.power
               (ledger_of_meter (Cst.Power_meter.of_log ~num_nodes log))
             && summary_agrees ~num_nodes log)))

(* Multi-part results: [combine_power] and [mirror_power] against the
   summed (and reflected) dense ledgers, directly and as assembled by
   the wave scheduler on crossing, mixed-orientation sets. *)
let test_combined_summaries_match_meter =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:60
       ~name:"combine_power / mirror_power / waves = dense meter" gen_case
       (fun (seed, e, density) ->
         let n = 1 lsl e in
         let rng = Cst_util.Prng.create seed in
         let t = topo n in
         let num_nodes = Cst.Topology.num_nodes t in
         let run s =
           let log = Cst.Exec_log.create () in
           let sched = Padr.Csa.run_exn ~log t s in
           (sched.power,
            ledger_of_meter (Cst.Power_meter.of_log ~num_nodes log))
         in
         let pa, la = run (Cst_workloads.Gen_wn.uniform rng ~n ~density) in
         let pb, lb = run (Cst_workloads.Gen_wn.uniform rng ~n ~density) in
         let direct =
           agrees (Padr.Schedule.combine_power pa pb) (add_ledgers la lb)
           && agrees (Padr.Schedule.mirror_power t pa) (mirror_ledger t la)
           && agrees
                (Padr.Schedule.combine_power pa
                   (Padr.Schedule.mirror_power t pb))
                (add_ledgers la (mirror_ledger t lb))
           && agrees
                (Padr.Schedule.combine_power
                   (Padr.Schedule.zero_power ~num_nodes)
                   pa)
                la
         in
         let waves =
           let arb =
             Cst_workloads.Gen_arbitrary.random_pairs rng ~n
               ~pairs:(1 + Cst_util.Prng.int rng (n / 2))
           in
           let log = Cst.Exec_log.create () in
           let w = Padr.Waves.schedule_exn ~leaves:n ~log arb in
           (* Right waves come first in the log; the left waves ran on
              the mirrored set, so their ledger is reflected back. *)
           let split =
             let right = List.length w.right_waves in
             let _, _, split =
               Cst.Exec_log.fold log ~init:(0, 0, 0)
                 ~f:(fun (i, ends, split) ev ->
                   match ev with
                   | Cst.Exec_log.Run_end _ when ends < right ->
                       (i + 1, ends + 1, i + 1)
                   | _ -> (i + 1, ends, split))
             in
             split
           in
           let right = Cst.Power_meter.of_log ~upto:split ~num_nodes log in
           let left = Cst.Power_meter.of_log ~from:split ~num_nodes log in
           agrees w.power
             (add_ledgers (ledger_of_meter right)
                (mirror_ledger t (ledger_of_meter left)))
         in
         direct && waves))

let test_summary_is_sparse () =
  (* A single pair on a large tree: the ledger holds its path only. *)
  let t = topo 4096 in
  let s = Padr.Csa.run_exn t (set ~n:4096 [ (0, 1) ]) in
  check_int "one busy switch" 1 (Array.length s.power.switches);
  check_int "dense view spans the tree"
    (Cst.Topology.num_nodes t + 1)
    (Array.length (Padr.Schedule.per_switch_connects s.power));
  let log = Cst.Exec_log.create () in
  Cst.Exec_log.connect log ~node:5 ~out_port:Cst.Side.P ~in_port:Cst.Side.L;
  check_raises_invalid "node beyond num_nodes" (fun () ->
      Padr.Schedule.power_of_log ~num_nodes:4 log)

let suite =
  [
    case "CSA flat in width" test_csa_flat_in_width;
    case "Roy linear in width" test_roy_linear_in_width;
    case "CSA constant across n" test_csa_constant_across_n;
    case "meter of_log" test_meter_of_log;
    case "meter cursors" test_meter_cursors;
    case "shared net rerun is free" test_shared_net_rerun_is_free;
    case "shared net topology mismatch" test_shared_net_topology_mismatch;
    case "disconnect tracking" test_disconnect_tracking;
    case "single-comm power floor" test_power_floor_met_on_single_comm;
    test_summary_matches_meter;
    test_combined_summaries_match_meter;
    case "summary is sparse" test_summary_is_sparse;
  ]
