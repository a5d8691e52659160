type round = {
  index : int;
  sources : int list;
  dests : int list;
  deliveries : (int * int) list;
  configs : (int * Cst.Switch_config.t) array;
}

type power = {
  total_connects : int;
  total_disconnects : int;
  total_writes : int;
  max_connects_per_switch : int;
  max_writes_per_switch : int;
  max_events_per_switch : int;
  num_nodes : int;
  switches : int array;
  connects : int array;
  disconnects : int array;
  writes : int array;
}

type t = {
  leaves : int;
  set : Cst_comm.Comm_set.t;
  width : int;
  rounds : round array;
  power : power;
  cycles : int;
}

let num_rounds t = Array.length t.rounds

let all_deliveries t =
  Array.to_list t.rounds
  |> List.concat_map (fun r -> r.deliveries)
  |> List.sort compare

let deliveries_per_round t =
  Array.map (fun r -> List.length r.deliveries) t.rounds

(* --- power summaries ----------------------------------------------

   A summary holds its per-switch counts sparsely: the switches with a
   nonzero count, ascending by node, with three parallel count arrays.
   The representation is canonical (no zero entry, strictly ascending
   nodes), so structural equality of two summaries is equality of the
   dense ledgers they stand for.  Every summary is built by [tally]. *)

let zero_power ~num_nodes =
  {
    total_connects = 0;
    total_disconnects = 0;
    total_writes = 0;
    max_connects_per_switch = 0;
    max_writes_per_switch = 0;
    max_events_per_switch = 0;
    num_nodes;
    switches = [||];
    connects = [||];
    disconnects = [||];
    writes = [||];
  }

(* Scratch ledger of [tally]: dense counters, all zero between calls
   (a call resets exactly the slots it touched), plus the list of
   touched nodes.  It grows to the largest tree seen on the domain. *)
type scratch = {
  mutable c : int array;
  mutable d : int array;
  mutable w : int array;
  mutable touched : int array;
}

let scratch =
  Cst_util.Scratch.create (fun () ->
      { c = [||]; d = [||]; w = [||]; touched = Array.make 64 0 })

(* [tally ~num_nodes feed] runs [feed add], where [add node ~c ~d ~w]
   charges counts to a switch, and summarizes the charges in
   O(charges + busy switches) — never O(num_nodes) unless the busy
   switches cover a 64th of the tree, when a scan beats a sort, or the
   domain's scratch must first grow to this tree. *)
let tally ~num_nodes feed =
  Cst_util.Scratch.use scratch @@ fun s ->
  if Array.length s.c <= num_nodes then begin
    s.c <- Array.make (num_nodes + 1) 0;
    s.d <- Array.make (num_nodes + 1) 0;
    s.w <- Array.make (num_nodes + 1) 0
  end;
  let c = s.c and d = s.d and w = s.w in
  let k = ref 0 in
  let add node ~c:dc ~d:dd ~w:dw =
    if node < 0 || node > num_nodes then
      invalid_arg "Padr.Schedule: switch beyond num_nodes";
    if dc > 0 || dd > 0 || dw > 0 then begin
      if c.(node) = 0 && d.(node) = 0 && w.(node) = 0 then begin
        if !k = Array.length s.touched then begin
          let t = Array.make (2 * !k) 0 in
          Array.blit s.touched 0 t 0 !k;
          s.touched <- t
        end;
        s.touched.(!k) <- node;
        incr k
      end;
      c.(node) <- c.(node) + dc;
      d.(node) <- d.(node) + dd;
      w.(node) <- w.(node) + dw
    end
  in
  feed add;
  let k = !k in
  let switches =
    if 64 * k >= num_nodes then begin
      let sw = Array.make k 0 and j = ref 0 in
      for node = 0 to num_nodes do
        if c.(node) <> 0 || d.(node) <> 0 || w.(node) <> 0 then begin
          sw.(!j) <- node;
          incr j
        end
      done;
      sw
    end
    else begin
      let sw = Array.sub s.touched 0 k in
      Array.sort Int.compare sw;
      sw
    end
  in
  let tc = ref 0 and td = ref 0 and tw = ref 0 in
  let mc = ref 0 and mw = ref 0 and me = ref 0 in
  Array.iter
    (fun node ->
      let ci = c.(node) and di = d.(node) and wi = w.(node) in
      tc := !tc + ci;
      td := !td + di;
      tw := !tw + wi;
      if ci > !mc then mc := ci;
      if wi > !mw then mw := wi;
      if ci + di > !me then me := ci + di)
    switches;
  let summary =
    {
      total_connects = !tc;
      total_disconnects = !td;
      total_writes = !tw;
      max_connects_per_switch = !mc;
      max_writes_per_switch = !mw;
      max_events_per_switch = !me;
      num_nodes;
      switches;
      connects = Array.map (fun node -> c.(node)) switches;
      disconnects = Array.map (fun node -> d.(node)) switches;
      writes = Array.map (fun node -> w.(node)) switches;
    }
  in
  for i = 0 to k - 1 do
    let node = s.touched.(i) in
    c.(node) <- 0;
    d.(node) <- 0;
    w.(node) <- 0
  done;
  summary

let power_of_log ?from ?upto ~num_nodes log =
  tally ~num_nodes (fun add ->
      Cst.Exec_log.iter ?from ?upto log (function
        | Cst.Exec_log.Connect { node; _ } -> add node ~c:1 ~d:0 ~w:0
        | Cst.Exec_log.Disconnect { node; _ } -> add node ~c:0 ~d:1 ~w:0
        | Cst.Exec_log.Write_config { node; count } ->
            add node ~c:0 ~d:0 ~w:count
        | Cst.Exec_log.Phase_done _ | Cst.Exec_log.Round_begin _
        | Cst.Exec_log.Deliver _ | Cst.Exec_log.Run_end _ ->
            ()))

let power_of_meter meter =
  let num_nodes = Cst.Power_meter.num_nodes meter in
  tally ~num_nodes (fun add ->
      for node = 0 to num_nodes do
        add node
          ~c:(Cst.Power_meter.connects meter ~node)
          ~d:(Cst.Power_meter.disconnects meter ~node)
          ~w:(Cst.Power_meter.writes meter ~node)
      done)

let add_entries add ?(image = Fun.id) p =
  Array.iteri
    (fun i node ->
      add (image node) ~c:p.connects.(i) ~d:p.disconnects.(i) ~w:p.writes.(i))
    p.switches

(* A switch busy in both parts accumulates, so the maxima are recomputed
   from the summed counts rather than maxed. *)
let combine_power a b =
  tally ~num_nodes:(max a.num_nodes b.num_nodes) (fun add ->
      add_entries add a;
      add_entries add b)

let mirror_power topo p =
  let nodes = Cst.Topology.num_nodes topo in
  let image node =
    if node >= 1 && node <= nodes then Cst.Topology.mirror_node topo node
    else node
  in
  tally ~num_nodes:p.num_nodes (fun add -> add_entries add ~image p)

let dense p counts =
  let a = Array.make (p.num_nodes + 1) 0 in
  Array.iteri (fun i node -> a.(node) <- counts.(i)) p.switches;
  a

let per_switch_connects p = dense p p.connects
let per_switch_disconnects p = dense p p.disconnects
let per_switch_writes p = dense p p.writes

(* Both width paths count only the links the set's paths cross, so a
   derivation costs O(M * path length), not O(tree). *)
let width_of topo set =
  if Cst.Topology.is_binary topo then
    Cst_comm.Width.width ~leaves:(Cst.Topology.leaves topo) set
  else
    Cst_comm.Width.width_on
      ~parent:(Cst.Topology.parent topo)
      ~first_leaf:(Cst.Topology.first_leaf topo)
      ~leaves:(Cst.Topology.leaves topo)
      ~cap:(Cst.Topology.uplink_cap topo)
      set

(* The schedule as a pure derivation of the execution log.  Sources are
   the delivery sources in emission order (every producer sweeps PEs in
   ascending order, so this matches the legacy eager fields); dests are
   sorted.  Config snapshots come from the log replay: the live (merged)
   configuration of every non-empty switch at the end of each round,
   ascending by node — identical to the old per-round net scans. *)
let of_log ?from ?upto ?(keep_configs = true) ~set ~topo ~cycles log =
  let leaves = Cst.Topology.leaves topo in
  let num_nodes = Cst.Topology.num_nodes topo in
  let rounds =
    Cst.Exec_log.fold_rounds ?from ?upto ~snapshots:keep_configs log ~init:[]
      ~f:(fun acc (rv : Cst.Exec_log.round_view) ->
        {
          index = rv.index;
          sources = List.map fst rv.deliveries;
          dests = List.sort compare (List.map snd rv.deliveries);
          deliveries = rv.deliveries;
          configs = (if keep_configs then Array.of_list rv.live else [||]);
        }
        :: acc)
    |> List.rev |> Array.of_list
  in
  {
    leaves;
    set;
    width = width_of topo set;
    rounds;
    power = power_of_log ?from ?upto ~num_nodes log;
    cycles;
  }

let pp_round fmt r =
  Format.fprintf fmt "round %d:" r.index;
  List.iter (fun (s, d) -> Format.fprintf fmt " %d->%d" s d) r.deliveries

let pp fmt t =
  Format.fprintf fmt
    "@[<v>schedule over %d PEs: %d communications, width %d, %d rounds, %d \
     cycles@,power: %d units (%d disconnects), max %d connects/switch@,"
    t.leaves
    (Cst_comm.Comm_set.size t.set)
    t.width (num_rounds t) t.cycles t.power.total_connects
    t.power.total_disconnects t.power.max_connects_per_switch;
  Array.iter (fun r -> Format.fprintf fmt "%a@," pp_round r) t.rounds;
  Format.pp_close_box fmt ()
