(* Traced mirror of [Service.run_job]'s dispatch.

   The mirror takes the same decisions as the service, through the same
   public calls, with a span around each call into a layer.  Spans live in
   memory and are written out once the run ends.  Where one public call
   does the work of two layers internally ([Csa.run] and [Plan.replay]
   both derive their schedule), the inner layer is estimated by a probe:
   the inner call is repeated on the same input after the outer one
   returns and recorded as a span whose parent is the outer call's span.
   Probes are extra work, so they never count towards the mirror's own
   total; [Power_meter.of_log] and the plan codec are probed the same
   way. *)

open Cst_service
module Schedule = Padr.Schedule

type span = {
  id : int;
  name : string;
  job : int;
  parent : int;  (** -1 for a root *)
  probe : bool;
  start : float;
  stop : float;
}

let now = Unix.gettimeofday
let spans : span list ref = ref []
let next_id = ref 0
let current = ref (-1)
let current_job = ref (-1)
let last_closed = ref (-1)

let span name f =
  let parent = !current in
  let id = !next_id in
  incr next_id;
  current := id;
  let start = now () in
  let r = Fun.protect ~finally:(fun () -> current := parent) f in
  let stop = now () in
  spans :=
    { id; name; job = !current_job; parent; probe = false; start; stop }
    :: !spans;
  last_closed := id;
  r

(* A probe estimating part of the span that closed last. *)
let probe name f =
  let parent = !last_closed in
  let start = now () in
  let r = f () in
  let stop = now () in
  let id = !next_id in
  incr next_id;
  spans :=
    { id; name; job = !current_job; parent; probe = true; start; stop }
    :: !spans;
  last_closed := parent;
  r

let root ~job name f =
  current_job := job;
  span name f

(* --- layer counts ------------------------------------------------------ *)

type counts = {
  mutable engine_events : int;
  mutable par_blocks : int;
  mutable wave_layers : int;
  mutable config_entries : int;
  mutable log_bytes : int;
}

let counts =
  {
    engine_events = 0;
    par_blocks = 0;
    wave_layers = 0;
    config_entries = 0;
    log_bytes = 0;
  }

(* Forgets the spans and counts of warm-up calls. *)
let reset () =
  spans := [];
  counts.engine_events <- 0;
  counts.par_blocks <- 0;
  counts.wave_layers <- 0;
  counts.config_entries <- 0;
  counts.log_bytes <- 0

let count_configs (s : Schedule.t) =
  Array.iter
    (fun (r : Schedule.round) ->
      counts.config_entries <- counts.config_entries + Array.length r.configs)
    s.rounds

(* --- traced calls ------------------------------------------------------ *)

let power_probe ~topo log =
  probe "power_meter.of_log" (fun () ->
      ignore
        (Cst.Power_meter.of_log ~num_nodes:(Cst.Topology.num_nodes topo) log))

let derive ~set ~topo ~cycles log =
  let s =
    span "schedule.of_log" (fun () -> Schedule.of_log ~set ~topo ~cycles log)
  in
  power_probe ~topo log;
  count_configs s;
  s

(* Re-derives the schedule a just-closed span derived internally. *)
let derive_probe ?(keep_configs = true) ~set ~topo ~cycles log =
  ignore
    (probe "schedule.of_log" (fun () ->
         Schedule.of_log ~keep_configs ~set ~topo ~cycles log));
  power_probe ~topo log

let digest log =
  counts.log_bytes <- counts.log_bytes + Cst.Exec_log.bytes_used log;
  span "exec_log.digest" (fun () -> Cst.Exec_log.digest log)

let codec_probe plan =
  probe "plan.codec" (fun () ->
      match Padr.Plan.Codec.decode (Padr.Plan.Codec.encode plan) with
      | Ok _ -> ()
      | Error e ->
          failwith
            (Format.asprintf "plan codec round trip: %a"
               Padr.Plan.Codec.pp_error e))

let result_of_schedule ~algo ~digest ~cache ?(control_messages = 0)
    ?(blocks = 0) ?(block_hits = 0) (s : Schedule.t) : Service.job_result =
  {
    algo;
    digest;
    width = s.width;
    waves = 1;
    rounds = Schedule.num_rounds s;
    cycles = s.cycles;
    control_messages;
    power = s.power;
    cache;
    blocks;
    block_hits;
    detail = Sched s;
  }

type classification =
  | Right_well_nested
  | Right_crossing of Cst_comm.Well_nested.violation
  | Mixed

let classify set =
  span "classify" (fun () ->
      if Cst_comm.Comm_set.is_right_oriented set then
        match Cst_comm.Well_nested.check set with
        | Ok _ -> Right_well_nested
        | Error v -> Right_crossing v
      else Mixed)

(* [Service.run_job ?cache job], decision for decision.  The workloads
   place no job, so the placement step is the identity and is skipped. *)
let run ?cache (job : Service.job) : (Service.job_result, Service.error) result
    =
  match Cst_baselines.Registry.find job.algo with
  | None -> Error (Service.Unknown_algo job.algo)
  | Some a -> (
      let leaves = Service.job_leaves job in
      let n = Cst_comm.Comm_set.n job.set in
      if n > leaves then Error (Service.Too_large { n; leaves })
      else
        let topo =
          span "topology.create" (fun () ->
              match job.shape with
              | Some s -> Cst.Topology.of_shape s
              | None -> Cst.Topology.create ~leaves)
        in
        let binary = Cst.Topology.is_binary topo in
        if (not binary) && not a.caps.shape_generic then
          Error (Unsupported { algo = a.name; what = "non-binary topologies" })
        else
          let shape = Cst.Topology.shape topo in
          let levels = Cst.Topology.levels topo in
          let key_of ~engine set : Plan_cache.key =
            let placed = span "canon.place" (fun () -> Cst.Canon.place set) in
            {
              algo = a.name;
              engine;
              shape;
              base = (if binary then 0 else placed.base);
              canon = placed.canon;
            }
          in
          let find pc key =
            span "plan_cache.find" (fun () -> Plan_cache.find pc ~worker:0 key)
          in
          let freeze pc key ~producer ~set ~rounds ~cycles ~control_messages
              log =
            let plan =
              span "plan.freeze" (fun () ->
                  Padr.Plan.of_log ~producer ~topo ~set ~rounds ~cycles
                    ~control_messages log)
            in
            codec_probe plan;
            span "plan_cache.add" (fun () ->
                Plan_cache.add pc ~worker:0 key plan)
          in
          let replay ?(keep_configs = true) plan set =
            let r : Padr.Plan.replayed =
              span "plan.replay" (fun () ->
                  Padr.Plan.replay ~keep_configs plan topo set)
            in
            derive_probe ~keep_configs ~set ~topo ~cycles:r.cycles r.log;
            count_configs r.schedule;
            r
          in
          (* The scheduler of the spec path: the registry algorithm on a
             binary tree, the capacity engine (which [Csa.run] delegates
             to) on any other shape. *)
          let spec_run log =
            if binary then (
              let s = span "csa.run" (fun () -> a.run ~log topo job.set) in
              derive_probe ~set:job.set ~topo ~cycles:s.cycles log;
              count_configs s;
              Ok s)
            else
              match
                span "cap_engine.run" (fun () ->
                    Padr.Cap_engine.run_log ~log topo job.set)
              with
              | Error e -> Error (Service.error_of_csa e)
              | Ok stats ->
                  Ok (derive ~set:job.set ~topo ~cycles:stats.cycles log)
          in
          let direct ~cache_status ~freeze_into =
            let log = Cst.Exec_log.create () in
            match spec_run log with
            | Error e -> Error e
            | Ok s ->
                Option.iter
                  (fun (pc, key) ->
                    freeze pc key ~producer:Padr.Plan.Spec ~set:job.set
                      ~rounds:(Schedule.num_rounds s) ~cycles:s.cycles
                      ~control_messages:0 log)
                  freeze_into;
                Ok
                  (result_of_schedule ~algo:a.name ~cache:cache_status
                     ~digest:(digest log) s)
          in
          let engine_fresh ~cache_status ~freeze_into =
            let log = Cst.Exec_log.create () in
            match
              span "engine.run_log" (fun () ->
                  Padr.Engine.run_log ~log topo job.set)
            with
            | Error e -> Error (Service.error_of_csa e)
            | Ok stats ->
                counts.engine_events <-
                  counts.engine_events + Cst.Exec_log.length log;
                let s = derive ~set:job.set ~topo ~cycles:stats.cycles log in
                Option.iter
                  (fun (pc, key) ->
                    freeze pc key ~producer:Padr.Plan.Engine ~set:job.set
                      ~rounds:(Schedule.num_rounds s) ~cycles:s.cycles
                      ~control_messages:stats.control_messages log)
                  freeze_into;
                Ok
                  (result_of_schedule ~algo:a.name ~cache:cache_status
                     ~digest:(digest log)
                     ~control_messages:stats.control_messages s)
          in
          let with_cache ~engine ~fresh ~hit =
            match cache with
            | None -> fresh ~cache_status:Service.Bypass ~freeze_into:None
            | Some pc -> (
                let key = key_of ~engine job.set in
                match find pc key with
                | Some plan -> hit (replay plan job.set)
                | None ->
                    fresh ~cache_status:Service.Miss
                      ~freeze_into:(Some (pc, key)))
          in
          let waves () =
            if not binary then
              Error
                (Service.Unsupported
                   { algo = a.name; what = "wave covers on a non-binary topology" })
            else
              let log = Cst.Exec_log.create () in
              match
                span "waves.schedule" (fun () ->
                    Padr.Waves.schedule ~leaves ~log job.set)
              with
              | Error e -> Error (Service.error_of_csa e)
              | Ok w ->
                  counts.wave_layers <-
                    counts.wave_layers + Padr.Waves.num_waves w;
                  let digest = digest log in
                  Ok
                    {
                      Service.algo = a.name;
                      digest;
                      width = Cst_comm.Width.width ~leaves w.set;
                      waves = Padr.Waves.num_waves w;
                      rounds = w.rounds;
                      cycles = w.cycles;
                      control_messages = 0;
                      power = w.power;
                      cache = Bypass;
                      blocks = 0;
                      block_hits = 0;
                      detail = Waves w;
                    }
          in
          let no_engine () =
            Error
              (Service.Unsupported
                 { algo = a.name; what = "the message-passing engine" })
          in
          let segmented () =
            match
              span "par_engine.decompose" (fun () ->
                  Padr.Par_engine.decompose topo job.set)
            with
            | Error e -> Error (Service.error_of_csa e)
            | Ok bs -> (
                counts.par_blocks <- counts.par_blocks + List.length bs;
                let hits = ref 0 in
                let run_block (b : Cst_comm.Decompose.block) =
                  span "par_engine.run_block" (fun () ->
                      Padr.Par_engine.run_block topo b)
                in
                let block_log (b : Cst_comm.Decompose.block) =
                  match cache with
                  | None -> run_block b
                  | Some pc -> (
                      let key = key_of ~engine:true b.set in
                      match find pc key with
                      | Some plan ->
                          incr hits;
                          Ok (replay ~keep_configs:false plan b.set).log
                      | None -> (
                          match run_block b with
                          | Error e -> Error e
                          | Ok blog ->
                              counts.engine_events <-
                                counts.engine_events + Cst.Exec_log.length blog;
                              let rounds =
                                match
                                  Cst.Exec_log.event blog
                                    (Cst.Exec_log.length blog - 1)
                                with
                                | Cst.Exec_log.Run_end { rounds } -> rounds
                                | _ -> failwith "block log without Run_end"
                              in
                              let control_messages =
                                if binary then 2 * (leaves - 1) * (rounds + 1)
                                else
                                  2
                                  * (Cst.Topology.num_nodes topo - 1)
                                  * (rounds + 1)
                              in
                              freeze pc key ~producer:Padr.Plan.Engine
                                ~set:b.set ~rounds
                                ~cycles:(1 + levels + (rounds * (levels + 2)))
                                ~control_messages blog;
                              Ok blog))
                in
                let rec collect acc = function
                  | [] -> Ok (List.rev acc)
                  | b :: rest -> (
                      match block_log b with
                      | Error e -> Error e
                      | Ok l -> collect (l :: acc) rest)
                in
                match collect [] bs with
                | Error e -> Error (Service.error_of_csa e)
                | Ok logs ->
                    let log =
                      span "par_engine.merge" (fun () ->
                          Cst.Exec_log.merge ~into:(Cst.Exec_log.create ())
                            ~levels logs)
                    in
                    let rounds =
                      match
                        Cst.Exec_log.event log (Cst.Exec_log.length log - 1)
                      with
                      | Cst.Exec_log.Run_end { rounds } -> rounds
                      | _ -> failwith "merged log without Run_end"
                    in
                    let s =
                      derive ~set:job.set ~topo
                        ~cycles:(1 + levels + (rounds * (levels + 2)))
                        log
                    in
                    let control_messages =
                      if binary then 2 * (leaves - 1) * (rounds + 1)
                      else 2 * (Cst.Topology.num_nodes topo - 1) * (rounds + 1)
                    in
                    let nblocks = List.length bs in
                    let cache_status =
                      match cache with
                      | None -> Service.Bypass
                      | Some _ ->
                          if nblocks > 0 && !hits = nblocks then Hit else Miss
                    in
                    Ok
                      (result_of_schedule ~algo:a.name ~cache:cache_status
                         ~digest:(digest log) ~control_messages
                         ~blocks:nblocks ~block_hits:!hits s))
          in
          match job.engine with
          | Message_passing ->
              if not a.caps.engine_available then no_engine ()
              else if classify job.set = Right_well_nested then
                with_cache ~engine:true ~fresh:engine_fresh
                  ~hit:(fun r ->
                    Ok
                      (result_of_schedule ~algo:a.name ~cache:Hit
                         ~digest:(digest r.log)
                         ~control_messages:r.control_messages r.schedule))
              else engine_fresh ~cache_status:Bypass ~freeze_into:None
          | Segmented ->
              if not a.caps.engine_available then no_engine ()
              else if classify job.set <> Right_well_nested then
                engine_fresh ~cache_status:Bypass ~freeze_into:None
              else segmented ()
          | Spec -> (
              match classify job.set with
              | Right_well_nested ->
                  with_cache ~engine:false ~fresh:direct ~hit:(fun r ->
                      Ok
                        (result_of_schedule ~algo:a.name ~cache:Hit
                           ~digest:(digest r.log) r.schedule))
              | Right_crossing v ->
                  if a.caps.supports = `Arbitrary then
                    direct ~cache_status:Bypass ~freeze_into:None
                  else if a.caps.via_waves then waves ()
                  else Error (Not_well_nested v)
              | Mixed ->
                  if a.caps.via_waves then waves ()
                  else
                    Error
                      (Unsupported
                         { algo = a.name; what = "left-oriented members" })))

(* --- output ------------------------------------------------------------ *)

let write_jsonl path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"job\":%d,\"parent\":%d,\"probe\":%b,\
             \"start\":%.6f,\"end\":%.6f}\n"
            s.id s.name s.job s.parent s.probe s.start s.stop)
        (List.rev !spans))
