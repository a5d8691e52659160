(* Service benchmark: drives one workload through the public client API
   ([Service] for nested-4k and repeat-4k, [Stream] for the stream
   workloads), checks the outputs, and prints its metrics as one JSON
   line.  See README.md
   for the workloads, the metrics and what each layer metric should move.

   Usage: main.exe --workload NAME [--seed N] [--seconds S] [--trace 0|1]

   With --trace 0 the run measures the end-to-end metrics.  With
   --trace 1 it spends half its time on an untraced run (stream timings,
   GC, busy fraction) and half on a traced run that executes every job
   twice, once through the span-instrumented mirror of the service's
   dispatch (mirror.ml) and once through [Service.run_job], and reports
   the per-layer metrics and the tracing overhead. *)

open Cst_service

let now = Unix.gettimeofday

(* Process CPU seconds, all threads and domains.  The closed loops time
   their jobs on this clock.  A shared host takes its vCPUs away for
   spells (on a 2-vCPU VM, 10 to 18% of the CPU time during some runs
   went to steal); wall time counts that time and this clock does not.
   Over ten 8 s runs of repeat-4k there, wall-clock rates ranged over
   108..169 jobs/s and CPU-clock rates over 131..167.  Slowdowns from
   neighbours that share the cores' caches and memory remain.  With one
   job outstanding, the CPU the process spends from a job's submit to its
   outcome is the job's cost. *)
let cpu_now () =
  let t = Unix.times () in
  t.tms_utime +. t.tms_stime

type clock = Wall | Cpu

let read = function Wall -> now () | Cpu -> cpu_now ()
let out_dir = ".svcbench"
let nproc = Domain.recommended_domain_count ()

(* One worker domain, whatever [nproc] is.  On a host of two vCPUs, two
   worker domains ran repeat-4k at 136 jobs/s against 178 for one: with
   the client thread they are more threads than vCPUs, and every minor
   collection stops all domains.  One worker leaves a vCPU to the client
   thread. *)
let domains = 1

(* --- statistics -------------------------------------------------------- *)

(* Nearest rank: the smallest sample with at least [q] of the samples at
   or below it. *)
let quantile sorted q =
  let n = Array.length sorted in
  if n = 0 then 0.
  else
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    sorted.(max 0 (min (n - 1) i))

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

(* The highest of p90 and p99 with at least ten samples beyond it: p99
   at 1000 samples, p90 at 100, the median below that.  The tail is taken
   over windows of a fixed size ([tail_window]), so every run of a
   workload uses the same rung of this ladder. *)
let tail_q n =
  List.fold_left
    (fun acc q ->
      if float_of_int n *. (1. -. q) >= 10. -. 1e-9 then Float.max acc q
      else acc)
    0.5 [ 0.9; 0.99 ]

let median l = quantile (sorted l) 0.5
let ms_of s = 1000. *. s

(* --- per-job records --------------------------------------------------- *)

type record = {
  id : int;
  ok : bool;
  line : string;  (** [Service.outcome_to_string] *)
  rounds : int;
  width : int;
  waves : int;
  max_connects : int;
  max_writes : int;
  power : int;  (** connects + writes *)
  binary_wn : bool;
  latency : float;  (** seconds *)
  finished : float;  (** clock when the outcome was delivered or completed *)
}

let record_of ~binary_wn ~latency ~finished (o : Service.outcome) =
  let line = Service.outcome_to_string o in
  match o.result with
  | Ok r ->
      {
        id = o.job_id;
        ok = true;
        line;
        rounds = r.rounds;
        width = r.width;
        waves = r.waves;
        max_connects = r.power.max_connects_per_switch;
        max_writes = r.power.max_writes_per_switch;
        power = r.power.total_connects + r.power.total_writes;
        binary_wn;
        latency;
        finished;
      }
  | Error _ ->
      {
        id = o.job_id;
        ok = false;
        line;
        rounds = 0;
        width = 0;
        waves = 0;
        max_connects = 0;
        max_writes = 0;
        power = 0;
        binary_wn;
        latency;
        finished;
      }

(* --- workloads --------------------------------------------------------- *)

type inputs =
  | Closed of {
      next : int -> Gen.job;  (** called for ids 0, 1, 2, ... in order *)
      warmup : Service.job list;
    }
  | Open of { jobs : Gen.job array; offsets : float array }
  | Bursts of { next : int -> Gen.job }
      (** closed loop through [Stream]; ids 0, 1, 2, ... in order *)

type workload = {
  name : string;
  slo_ms : float;  (** latency limit of [slo_met_frac] *)
  prefix : int;  (** jobs in the fingerprint and the [sim_*] sums *)
  window : int;
      (** jobs per second and the latency p50 are taken per window of
          this many consecutive job ids (the whole run when it holds fewer
          than two) *)
  tail_window : int;
      (** the latency tail is taken per window of this many job ids; the
          peak heap is read when this many jobs have completed *)
  cycle : int;
      (** closed loops: the job profile repeats with this period, and a
          measured phase ends on a cycle boundary *)
  min_jobs : int;
      (** closed loops: a phase that has fewer jobs at [--seconds] goes on
          until it has them (for at most three times as long), so that
          every run has at least one tail window *)
  cache_bytes : int option;
  with_store : bool;
  clock : clock;
      (** of the set-up and job timings: [Cpu], save for the open loop,
          which keeps its schedule, and the latency from each due time,
          on the wall clock *)
  make : seed:int -> seconds:float -> inputs;
}

(* Open-loop arrival rate: under half of what one domain sustains on the
   stream-mixed mix (about 290 jobs/s in stream-closed), so a host that
   runs slower for a while queues more but does not saturate. *)
let stream_rate = 120.
let stream_policy =
  Admission.Delta_threshold { delta = 0.004; max_width = Some 64 }

(* A backlog that keeps growing shows as latency from the due time rising
   across the run.  When the median latency of the last quarter of the
   arrivals exceeds the first quarter's by this much (30 arrivals' worth),
   the stream is saturated: the run reports no metrics, because its
   latencies would not be steady.  A host that runs slow for a few
   seconds raises latencies by tens of milliseconds, not by this. *)
let saturation_growth = 0.25
let stream_prefix = 1000

(* stream-closed submits this many arrivals back to back, then drains. *)
let stream_burst = 8

let workloads =
  [
    {
      name = "nested-4k";
      slo_ms = 1000.;
      prefix = 40;
      window = Array.length Gen.nested_cycle;
      (* 13 cycles: p90 with 10 jobs beyond it *)
      tail_window = 13 * Array.length Gen.nested_cycle;
      cycle = Array.length Gen.nested_cycle;
      min_jobs = 13 * Array.length Gen.nested_cycle;
      cache_bytes = None;
      with_store = false;
      clock = Cpu;
      make =
        (fun ~seed ~seconds:_ ->
          let g = Gen.nested ~seed in
          Closed
            {
              next = Gen.nested_job g;
              warmup = Gen.nested_warmup ~domains;
            });
    };
    {
      name = "repeat-4k";
      (* between the cached jobs (under 6 ms) and the per-block Segmented
         replays of the pairs templates (25 ms and up) *)
      slo_ms = 15.;
      prefix = 300;
      window = 3 * Array.length (Gen.templates ());
      (* 13 cycles of 81: p99 with 10 jobs beyond it *)
      tail_window = 39 * Array.length (Gen.templates ());
      cycle = 3 * Array.length (Gen.templates ());
      min_jobs = 39 * Array.length (Gen.templates ());
      cache_bytes = None;
      with_store = false;
      clock = Cpu;
      make =
        (fun ~seed ~seconds:_ ->
          let templates = Gen.templates () in
          Closed
            {
              next = Gen.repeat_job ~seed templates;
              warmup = Gen.repeat_warmup templates;
            });
    };
    {
      name = "stream-mixed";
      slo_ms = 50.;
      prefix = stream_prefix;
      window = 240;
      tail_window = 1000;
      cycle = 1;
      min_jobs = 0;
      cache_bytes = Some (256 * 1024);
      with_store = true;
      clock = Wall;
      make =
        (fun ~seed ~seconds ->
          (* A Poisson process conditioned on its count: [rate * seconds]
             arrivals spread uniformly over the window, so the offered
             load is the same on every seed. *)
          let count = int_of_float (stream_rate *. seconds) in
          let rng = Gen.rng_for ~seed ~salt:5 0 in
          let offsets =
            Array.init count (fun _ -> Cst_util.Prng.float rng seconds)
          in
          Array.sort Float.compare offsets;
          Open
            {
              jobs = Gen.stream_jobs ~seed ~count:(max count stream_prefix);
              offsets;
            });
    };
    {
      name = "stream-closed";
      slo_ms = 50.;
      prefix = stream_prefix;
      window = 30 * stream_burst;
      (* p99 with 10 jobs beyond it *)
      tail_window = 125 * stream_burst;
      cycle = stream_burst;
      min_jobs = 125 * stream_burst;
      cache_bytes = Some (256 * 1024);
      with_store = true;
      clock = Cpu;
      make =
        (fun ~seed ~seconds:_ ->
          Bursts { next = Gen.stream_job (Gen.stream ~seed) });
    };
  ]

(* Fingerprints of the prefix outcome lines on the default seed. *)
let stored_fingerprints =
  [
    (("nested-4k", 1), "763c3f23d2a4d383a294c3037c5ccf65");
    (("repeat-4k", 1), "72129427e90c1fad6d960fc0fd2b6d7b");
    (("stream-mixed", 1), "542a66156f78779e432b714a949d988d");
    (* the same arrival sequence *)
    (("stream-closed", 1), "542a66156f78779e432b714a949d988d");
  ]

(* --- files ------------------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let ensure_dir d = if not (Sys.file_exists d) then Sys.mkdir d 0o755

let store_counter = ref 0

let fresh_store () =
  incr store_counter;
  let dir =
    Filename.concat out_dir
      (Printf.sprintf "store-%d-%d" (Unix.getpid ()) !store_counter)
  in
  rm_rf dir;
  (dir, Plan_store.open_dir dir)

(* --- set-up ------------------------------------------------------------ *)

type pool = Pool of Service.t | Stream_pool of Stream.t

type env = { inputs : inputs; pool : pool; stores : string list }

let shutdown_env env =
  (match env.pool with
  | Pool p -> Service.shutdown p
  | Stream_pool s -> Stream.shutdown s);
  List.iter rm_rf env.stores

let setup w ~seed ~seconds =
  let inputs = w.make ~seed ~seconds in
  let stores, store =
    if w.with_store then
      let dir, st = fresh_store () in
      ([ dir ], Some st)
    else ([], None)
  in
  let cache_bytes = w.cache_bytes in
  match inputs with
  | Closed c ->
      let p = Service.create ~domains ?cache_bytes ?store () in
      List.iter (Service.submit p) c.warmup;
      List.iter (fun _ -> ignore (Service.next_outcome p)) c.warmup;
      { inputs; pool = Pool p; stores }
  | Open _ | Bursts _ ->
      let s =
        Stream.create ~domains ?cache_bytes ?store ~policy:stream_policy
          ~clock:(fun () -> read w.clock) ()
      in
      (* Crossing sets bypass the plan cache: they start the domains
         without resident plans. *)
      let rng = Gen.rng_for ~seed ~salt:6 0 in
      for k = 1 to stream_burst do
        Stream.submit s
          (Service.job ~id:(-k) ~algo:"csa"
             (Cst_workloads.Gen_arbitrary.random_pairs rng ~n:Gen.stream_n
                ~pairs:16))
      done;
      ignore (Stream.drain s);
      { inputs; pool = Stream_pool s; stores }

let timed_setup w ~seed ~seconds =
  let t0 = read w.clock in
  let env = setup w ~seed ~seconds in
  (env, read w.clock -. t0)

(* [setup_s] is the median of seven set-ups: the measured one ([first]
   seconds) and six more, each shut down again, after the measured phase.
   They come after it because pools set up and shut down before the phase
   raised [Gc.top_heap_words] by a quarter in some runs and not in others
   (the runtime keeps the heap figures of domains that have ended). *)
let setup_median w ~seed ~seconds ~first =
  let more =
    List.init 6 (fun _ ->
        let env, t = timed_setup w ~seed ~seconds in
        shutdown_env env;
        t)
  in
  median (first :: more)

(* --- measured phase ---------------------------------------------------- *)

type phase = {
  records : record list;  (** by job id *)
  start : float;  (** the workload's clock when the phase started *)
  wall : float;
  cpu : float;
  gc_minor : int;
  gc_major : int;
  alloc_words : float;
  submit_s : float;  (** client time inside submit *)
  heap_mb : float;
      (** [Gc.top_heap_words] once the phase completed [tail_window] jobs
          (when it ended, if it completed fewer) *)
  stream : stream_phase option;
}

and stream_phase = {
  admission : float list;
  exec : float list;
  gen_lag : float list;
  epochs : int;
  submitted : int;
  completed : int;
  growth : float;
      (** seconds: median latency of the last quarter of the arrivals
          minus that of the first quarter *)
}

let gc_words (s : Gc.stat) = s.minor_words +. s.major_words -. s.promoted_words

let heap_mb () =
  float_of_int (Gc.quick_stat ()).top_heap_words
  *. float_of_int (Sys.word_size / 8)
  /. 1e6

(* [f t0 completed] runs the phase from [t0] and calls [completed n] when
   [n] jobs have completed.  The peak heap is read when [n] first reaches
   [heap_after]: the benchmark keeps a record of every job, so a reading
   at the end would grow with the number of jobs a run got through. *)
let measure ~clock ~heap_after f =
  let heap = ref None in
  let completed n =
    if Option.is_none !heap && n >= heap_after then heap := Some (heap_mb ())
  in
  let g0 = Gc.quick_stat () and c0 = cpu_now () and t0 = now () in
  let start = read clock in
  let records, submit_s, stream = f t0 completed in
  let t_end = now () and g1 = Gc.quick_stat () and c1 = cpu_now () in
  {
    records;
    start;
    wall = t_end -. t0;
    heap_mb = (match !heap with Some h -> h | None -> heap_mb ());
    cpu = c1 -. c0;
    gc_minor = g1.minor_collections - g0.minor_collections;
    gc_major = g1.major_collections - g0.major_collections;
    alloc_words = gc_words g1 -. gc_words g0;
    submit_s;
    stream;
  }

(* Closed loop: at most [domains] jobs outstanding; outcomes are pulled in
   submission order and kept only as their rendered line and checked
   fields.  Latency runs on [clock] from submit to the outcome's
   delivery. *)
let closed_loop pool ~clock ~next ~seconds ~cycle ~min_jobs ~heap_after =
  measure ~clock ~heap_after (fun t0 completed ->
      let deadline = t0 +. seconds and last_call = t0 +. (3. *. seconds) in
      let inflight = Queue.create () in
      let next_id = ref 0 in
      let submit_s = ref 0. in
      let records = ref [] in
      let rec go () =
        if
          !next_id mod cycle <> 0
          || now () < deadline
          || (!next_id < min_jobs && now () < last_call)
        then
          while Queue.length inflight < domains do
            let (j : Gen.job) = next !next_id in
            incr next_id;
            let ts = read clock and tw = now () in
            Service.submit pool j.job;
            submit_s := !submit_s +. (now () -. tw);
            Queue.push (ts, j.binary_wn) inflight
          done;
        if not (Queue.is_empty inflight) then (
          let o = Option.get (Service.next_outcome pool) in
          let t = read clock in
          let ts, binary_wn = Queue.pop inflight in
          records :=
            record_of ~binary_wn ~latency:(t -. ts) ~finished:t o :: !records;
          completed (!next_id - Queue.length inflight);
          go ())
      in
      go ();
      (List.rev !records, !submit_s, None))

(* What a [Stream] loop keeps of the drained outcomes. *)
type drained = {
  mutable recs : record list;
  mutable admission_s : float list;
  mutable exec_s : float list;
}

(* Drains [stream] into [d]; a job's latency runs from [since id timing]. *)
let drain_into d stream ~binary_wn ~since =
  List.iter
    (fun ((o : Service.outcome), (tm : Stream.timing)) ->
      d.recs <-
        record_of ~binary_wn:(binary_wn o.job_id)
          ~latency:(tm.completed -. since o.job_id tm)
          ~finished:tm.completed o
        :: d.recs;
      d.admission_s <- (tm.committed -. tm.arrival) :: d.admission_s;
      d.exec_s <- (tm.completed -. tm.committed) :: d.exec_s)
    (Stream.drain stream)

let stream_summary stream (st0 : Stream.stats) d ~gen_lag ~growth =
  let st = Stream.stats stream in
  {
    admission = d.admission_s;
    exec = d.exec_s;
    gen_lag;
    epochs = st.epochs - st0.epochs;
    submitted = st.submitted - st0.submitted;
    completed = st.completed - st0.completed;
    growth;
  }

(* Closed loop through [Stream]: [stream_burst] arrivals are submitted back
   to back and then drained, so the admission policy sees a queue of
   arrivals and coalesces them into epochs.  Latency runs from a job's
   arrival to its completion. *)
let burst_loop stream ~clock ~next ~seconds ~min_jobs ~heap_after =
  let st0 = Stream.stats stream in
  measure ~clock ~heap_after (fun t0 completed ->
      let deadline = t0 +. seconds and last_call = t0 +. (3. *. seconds) in
      let d = { recs = []; admission_s = []; exec_s = [] } in
      let next_id = ref 0 and submit_s = ref 0. in
      while now () < deadline || (!next_id < min_jobs && now () < last_call) do
        let first = !next_id in
        let burst = Array.init stream_burst (fun k -> next (first + k)) in
        next_id := first + stream_burst;
        Array.iter
          (fun (j : Gen.job) ->
            let ts = now () in
            Stream.submit stream j.job;
            submit_s := !submit_s +. (now () -. ts))
          burst;
        drain_into d stream
          ~binary_wn:(fun id -> burst.(id - first).binary_wn)
          ~since:(fun _ (tm : Stream.timing) -> tm.arrival);
        completed !next_id
      done;
      let records = List.sort (fun a b -> Int.compare a.id b.id) d.recs in
      ( records,
        !submit_s,
        Some (stream_summary stream st0 d ~gen_lag:[] ~growth:0.) ))

(* Open loop: job [i] is due at [t0 + offsets.(i)] whatever the state of
   the service; latency runs from the due time, so a stall also delays the
   jobs behind it. *)
let open_loop stream ~(jobs : Gen.job array) ~offsets ~seconds ~heap_after =
  let st0 = Stream.stats stream in
  measure ~clock:Wall ~heap_after (fun t0 completed ->
      let n = ref 0 in
      while !n < Array.length offsets && offsets.(!n) < seconds do
        incr n
      done;
      let n = !n in
      let due = Array.init n (fun i -> t0 +. offsets.(i)) in
      let lag = Array.make n 0. in
      let submit_s = ref 0. in
      let d = { recs = []; admission_s = []; exec_s = [] } in
      (* The stream keeps every finished outcome until it is drained;
         draining once a second bounds what it holds, and each outcome is
         reduced to its record at once. *)
      let collect () =
        drain_into d stream
          ~binary_wn:(fun i -> jobs.(i).binary_wn)
          ~since:(fun i _ -> due.(i));
        completed (List.length d.recs)
      in
      let next_drain = ref 1. in
      for i = 0 to n - 1 do
        if offsets.(i) >= !next_drain then (
          collect ();
          next_drain := !next_drain +. 1.);
        let rec wait () =
          let t = now () in
          if t < due.(i) then (
            Stream.tick stream;
            Unix.sleepf (Float.min (due.(i) -. t) 0.0005);
            wait ())
        in
        wait ();
        let ts = now () in
        lag.(i) <- ts -. due.(i);
        Stream.submit stream jobs.(i).job;
        submit_s := !submit_s +. (now () -. ts)
      done;
      collect ();
      let records = List.sort (fun a b -> Int.compare a.id b.id) d.recs in
      let quarter k =
        median
          (List.filter_map
             (fun r -> if r.id * 4 / max 1 n = k then Some r.latency else None)
             records)
      in
      let growth = if n >= 40 then quarter 3 -. quarter 0 else 0. in
      ( records,
        !submit_s,
        Some (stream_summary stream st0 d ~gen_lag:(Array.to_list lag) ~growth) ))

let run_phase w env ~seconds =
  let heap_after = w.tail_window in
  match (env.inputs, env.pool) with
  | Closed c, Pool p ->
      closed_loop p ~clock:w.clock ~next:c.next ~seconds ~cycle:w.cycle
        ~min_jobs:w.min_jobs ~heap_after
  | Open o, Stream_pool s ->
      open_loop s ~jobs:o.jobs ~offsets:o.offsets ~seconds ~heap_after
  | Bursts b, Stream_pool s ->
      burst_loop s ~clock:w.clock ~next:b.next ~seconds ~min_jobs:w.min_jobs
        ~heap_after
  | _ -> invalid_arg "run_phase"

(* --- output checks ----------------------------------------------------- *)

(* The prefix jobs' records: those the measured phase completed, the rest
   computed now, untimed, by a fresh pool. *)
let prefix_records w env (ph : phase) =
  let done_ = Hashtbl.create 64 in
  List.iter
    (fun r -> if r.id < w.prefix then Hashtbl.replace done_ r.id r)
    ph.records;
  let missing =
    match env.inputs with
    | Closed { next; _ } | Bursts { next } ->
        (* ids past the measured ones are generated now, in order *)
        let generated = List.length ph.records in
        List.init (max 0 (w.prefix - generated)) (fun k -> next (generated + k))
    | Open o ->
        List.filter_map
          (fun id ->
            if Hashtbl.mem done_ id then None else Some o.jobs.(id))
          (List.init w.prefix Fun.id)
  in
  let binary_wn = Hashtbl.create 64 in
  List.iter
    (fun (j : Gen.job) -> Hashtbl.replace binary_wn j.job.id j.binary_wn)
    missing;
  List.iter
    (fun (o : Service.outcome) ->
      Hashtbl.replace done_ o.job_id
        (record_of ~binary_wn:(Hashtbl.find binary_wn o.job_id) ~latency:0.
           ~finished:0. o))
    (Service.run ~domains ~cache:false
       (List.map (fun (j : Gen.job) -> j.job) missing));
  List.init w.prefix (Hashtbl.find done_)

let fingerprint records =
  Digest.to_hex
    (Digest.string (String.concat "\n" (List.map (fun r -> r.line) records)))

let check_records w ~seed (ph : phase) prefix =
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun s -> failures := s :: !failures) fmt in
  let bound = Padr.Verify.default_power_bound in
  List.iter
    (fun r ->
      if not r.ok then fail "job %d failed: %s" r.id r.line
      else if r.binary_wn && r.waves = 1 then (
        if r.rounds <> r.width then
          fail "job %d: %d rounds for width %d (Theorem 5)" r.id r.rounds
            r.width;
        if r.max_connects > bound then
          fail "job %d: %d connects at one switch, bound %d (Theorem 8)" r.id
            r.max_connects bound))
    (ph.records @ prefix);
  (match ph.stream with
  | Some s when s.completed <> s.submitted ->
      fail "stream completed %d of %d jobs" s.completed s.submitted
  | Some s when s.growth > saturation_growth ->
      fail
        "SATURATED: median latency from the due time rose by %.0f ms from \
         the first quarter of the run to the last; the rate is above what \
         the service sustains, so its latencies are not steady"
        (ms_of s.growth)
  | _ -> ());
  let fp = fingerprint prefix in
  (match List.assoc_opt (w.name, seed) stored_fingerprints with
  | Some stored when stored <> fp ->
      fail "fingerprint %s differs from the stored %s" fp stored
  | _ -> ());
  (List.rev !failures, fp)

(* --- traced run -------------------------------------------------------- *)

type traced = {
  jobs : int;
  run_job : float list;  (** seconds per job *)
  mismatches : string list;
  cache : Plan_cache.stats;
}

let traced_run w ~seed ~seconds =
  let stores = ref [] in
  let cache () =
    let store =
      if w.with_store then (
        let dir, st = fresh_store () in
        stores := dir :: !stores;
        Some st)
      else None
    in
    Plan_cache.create ?max_bytes:w.cache_bytes ?store ~domains:1 ()
  in
  let mc = cache () and sc = cache () in
  let inputs = w.make ~seed ~seconds in
  let job_at =
    match inputs with
    | Closed c ->
        List.iter
          (fun j ->
            ignore (Mirror.run ~cache:mc j);
            ignore (Service.run_job ~cache:(sc, 0) j))
          c.warmup;
        c.next
    | Open o -> fun i -> o.jobs.(i mod Array.length o.jobs)
    | Bursts b -> b.next
  in
  Mirror.reset ();
  let t0 = now () in
  let deadline = t0 +. seconds in
  let run_job = ref [] and mismatches = ref [] in
  let i = ref 0 in
  while !i = 0 || now () < deadline do
    let (j : Gen.job) = job_at !i in
    let id = j.job.id in
    let mirrored () =
      let result =
        Mirror.root ~job:id "mirror.job" (fun () -> Mirror.run ~cache:mc j.job)
      in
      Mirror.span "service.render" (fun () ->
          Service.outcome_to_string { job_id = id; result })
    in
    let served () =
      let result =
        Mirror.root ~job:id "service.run_job" (fun () ->
            Service.run_job ~cache:(sc, 0) j.job)
      in
      let t = !Mirror.spans |> List.hd in
      run_job := (t.stop -. t.start) :: !run_job;
      Service.outcome_to_string { job_id = id; result }
    in
    (* Alternate which execution goes first, so neither always inherits
       the other's GC debt. *)
    let m, s =
      if !i mod 2 = 0 then
        let m = mirrored () in
        (m, served ())
      else
        let s = served () in
        (mirrored (), s)
    in
    if m <> s then
      mismatches :=
        Printf.sprintf "mirror line %S differs from run_job line %S" m s
        :: !mismatches;
    incr i
  done;
  let stats = Plan_cache.stats sc in
  List.iter rm_rf !stores;
  {
    jobs = !i;
    run_job = List.rev !run_job;
    mismatches = List.rev !mismatches;
    cache = stats;
  }

(* Layer metrics from the spans: ms per traced job. *)
let layer_metrics (tr : traced) =
  let spans = !Mirror.spans in
  let by_id = Hashtbl.create 1024 in
  List.iter (fun (s : Mirror.span) -> Hashtbl.replace by_id s.id s) spans;
  let dur (s : Mirror.span) = s.stop -. s.start in
  let per_job x = 1000. *. x /. float_of_int (max 1 tr.jobs) in
  let direct name =
    List.fold_left
      (fun acc (s : Mirror.span) ->
        if s.name = name && not s.probe then acc +. dur s else acc)
      0. spans
  in
  (* probes named [name], optionally only those estimating part of a span
     named [inside] *)
  let probed ?inside name =
    List.fold_left
      (fun acc (s : Mirror.span) ->
        if
          s.probe && s.name = name
          && (match inside with
             | None -> true
             | Some p -> (
                 match Hashtbl.find_opt by_id s.parent with
                 | Some ps -> ps.name = p
                 | None -> false))
        then acc +. dur s
        else acc)
      0. spans
  in
  let children =
    List.fold_left
      (fun acc (s : Mirror.span) ->
        match Hashtbl.find_opt by_id s.parent with
        | Some p when (not s.probe) && p.name = "mirror.job" -> acc +. dur s
        | _ -> acc)
      0. spans
  in
  let ms name = per_job (direct name) in
  let self name =
    per_job (direct name -. probed ~inside:name "schedule.of_log")
  in
  [
    ("topology.create_ms", ms "topology.create");
    ("classify.ms", ms "classify");
    ("canon.place_ms", ms "canon.place");
    ("plan_cache.find_ms", ms "plan_cache.find");
    ("plan_cache.add_ms", ms "plan_cache.add");
    ("plan.replay_ms", self "plan.replay");
    ("plan.freeze_ms", ms "plan.freeze");
    ("plan.codec_ms", per_job (probed "plan.codec"));
    ("engine.run_log_ms", ms "engine.run_log");
    ("csa.run_ms", self "csa.run");
    ("par_engine.decompose_ms", ms "par_engine.decompose");
    ("par_engine.block_ms", ms "par_engine.run_block");
    ("par_engine.merge_ms", ms "par_engine.merge");
    ("cap_engine.run_ms", ms "cap_engine.run");
    ("waves.schedule_ms", ms "waves.schedule");
    ( "schedule.of_log_ms",
      per_job (direct "schedule.of_log" +. probed "schedule.of_log") );
    ("power_meter.of_log_ms", per_job (probed "power_meter.of_log"));
    ("exec_log.digest_ms", ms "exec_log.digest");
    ("service.render_ms", ms "service.render");
    ( "service.unattributed_ms",
      per_job (List.fold_left ( +. ) 0. tr.run_job -. children) );
  ]

(* Tracing overhead: the mirror's traced time per job (its probes left
   out) over [Service.run_job]'s time on the same jobs. *)
let trace_overhead (tr : traced) =
  let total ~probe name =
    List.fold_left
      (fun acc (s : Mirror.span) ->
        if s.probe = probe && (name = "" || s.name = name) then
          acc +. (s.stop -. s.start)
        else acc)
      0. !Mirror.spans
  in
  (total ~probe:false "mirror.job" -. total ~probe:true "")
  /. List.fold_left ( +. ) 0. tr.run_job

(* --- metrics ----------------------------------------------------------- *)

type metric = { mname : string; value : float; unit_ : string }

let m mname unit_ value = { mname; value; unit_ }

(* Consecutive windows of [size] job ids; a trailing partial window is
   dropped, and a run shorter than two windows is one window. *)
let windows size (ph : phase) =
  let rec split acc cur k = function
    | [] -> List.rev acc
    | r :: rest ->
        if k + 1 = size then split (List.rev (r :: cur) :: acc) [] 0 rest
        else split acc (r :: cur) (k + 1) rest
  in
  match split [] [] 0 ph.records with
  | ([] | [ _ ]) -> [ ph.records ]
  | ws -> ws

(* Jobs per second of the workload's clock: the median over windows of
   the window's jobs divided by the time since the previous window ended
   (in the open loop, the arrival rate while the stream keeps up). *)
let jobs_per_s w (ph : phase) =
  let ok l = float_of_int (List.length (List.filter (fun r -> r.ok) l)) in
  let _, rates =
    List.fold_left
      (fun (since, acc) win ->
        let last = List.fold_left (fun t r -> Float.max t r.finished) since win in
        (last, (ok win /. (last -. since)) :: acc))
      (ph.start, [])
      (windows w.window ph)
  in
  median rates

(* The latency median and tail are medians over windows, so a spell of a
   slow host during part of a run moves them less; the SLO share is taken
   over the whole run.  The time metrics on the CPU clock say so in their
   names. *)
let end_to_end w (ph : phase) ~setup_s ~prefix =
  let on_clock name unit_ =
    match w.clock with Wall -> name ^ unit_ | Cpu -> name ^ "_cpu" ^ unit_
  in
  let ws = windows w.window ph and tws = windows w.tail_window ph in
  let lat win = sorted (List.map (fun r -> ms_of r.latency) win) in
  let n = List.length ph.records in
  let tn = List.length (List.hd tws) in
  let tq = tail_q tn in
  let okp = List.filter (fun r -> r.ok) prefix in
  let sum f = float_of_int (List.fold_left (fun acc r -> acc + f r) 0 okp) in
  ( [
      m (on_clock "jobs_per" "_s") "1/s" (jobs_per_s w ph);
      m (on_clock "latency_p50" "_ms") "ms"
        (median (List.map (fun win -> quantile (lat win) 0.5) ws));
      m (on_clock "latency_tail" "_ms") "ms"
        (median (List.map (fun win -> quantile (lat win) tq) tws));
      m "slo_met_frac" "frac"
        (float_of_int
           (List.length
              (List.filter
                 (fun r -> r.ok && ms_of r.latency <= w.slo_ms)
                 ph.records))
        /. float_of_int (max 1 n));
      m "peak_heap_mb" "MB" ph.heap_mb;
      m "setup_s" "s" setup_s;
      m "sim_rounds" "count" (sum (fun r -> r.rounds));
      m "sim_power" "count" (sum (fun r -> r.power));
      m "sim_max_writes_per_switch" "count"
        (float_of_int
           (List.fold_left (fun acc r -> max acc r.max_writes) 0 okp));
    ],
    Printf.sprintf
      "%d jobs in %.2f s of wall time (%.4g jobs/s); times on the %s \
       clock; the latency tail is the median over %d window(s) of %d jobs \
       of their p%g (%d beyond it); jobs per second and the latency p50 \
       are medians over %d window(s) of %d jobs"
      n ph.wall
      (float_of_int n /. ph.wall)
      (match w.clock with Wall -> "wall" | Cpu -> "process CPU")
      (List.length tws) tn (100. *. tq)
      (tn - int_of_float (Float.ceil (tq *. float_of_int tn)))
      (List.length ws) (List.length (List.hd ws)) )

let per_layer (ph : phase) (tr : traced) =
  let n = List.length ph.records in
  let nf = float_of_int (max 1 n) in
  let failed = List.length (List.filter (fun r -> not r.ok) ph.records) in
  let rj = sorted (List.map ms_of tr.run_job) in
  let c = tr.cache in
  let jobs = float_of_int (max 1 tr.jobs) in
  (* counts of the traced run, per traced job *)
  let per_job x = float_of_int x /. jobs in
  let store f = match c.store with Some s -> per_job (f s) | None -> 0. in
  let lookups = c.hits + c.misses in
  let stream f = match ph.stream with Some s -> f s | None -> 0. in
  let q l p = quantile (sorted (List.map ms_of l)) p in
  let counts = Mirror.counts in
  [
    m "service.run_job_ms_p50" "ms" (quantile rj 0.5);
    m "service.run_job_ms_p99" "ms" (quantile rj 0.99);
    m "service.submit_blocked_ms" "ms" (ms_of ph.submit_s /. nf);
    m "service.busy_frac" "frac" (ph.cpu /. (ph.wall *. float_of_int domains));
    m "service.error_rate" "frac" (float_of_int failed /. nf);
  ]
  @ List.map (fun (k, v) -> m k "ms" v) (layer_metrics tr)
  @ [
      m "plan_cache.hit_ratio" "frac"
        (if lookups = 0 then 0.
         else float_of_int c.hits /. float_of_int lookups);
      m "plan_cache.evictions" "count/job" (per_job c.evictions);
      m "plan_store.faults" "count/job" (store (fun s -> s.hits));
      m "plan_store.stores" "count/job" (store (fun s -> s.stores));
      m "plan_store.corrupt" "count/job" (store (fun s -> s.corrupt));
      m "engine.events" "count/job" (per_job counts.engine_events);
      m "par_engine.blocks" "count/job" (per_job counts.par_blocks);
      m "waves.layers" "count/job" (per_job counts.wave_layers);
      m "schedule.config_entries" "count/job" (per_job counts.config_entries);
      m "exec_log.bytes_per_job" "B" (per_job counts.log_bytes);
      m "stream.submit_ms" "ms" (stream (fun _ -> ms_of ph.submit_s /. nf));
      m "stream.admission_wait_ms_p50" "ms"
        (stream (fun s -> q s.admission 0.5));
      m "stream.admission_wait_ms_p99" "ms"
        (stream (fun s -> q s.admission 0.99));
      m "stream.exec_ms_p50" "ms" (stream (fun s -> q s.exec 0.5));
      m "stream.exec_ms_p99" "ms" (stream (fun s -> q s.exec 0.99));
      m "stream.epochs" "count" (stream (fun s -> float_of_int s.epochs));
      m "stream.jobs_per_epoch" "count"
        (stream (fun s ->
             float_of_int s.completed /. float_of_int (max 1 s.epochs)));
      m "stream.gen_lag_ms_p99" "ms" (stream (fun s -> q s.gen_lag 0.99));
      m "stream.latency_growth_ms" "ms" (stream (fun s -> ms_of s.growth));
      m "gc.minor_collections" "count/job" (float_of_int ph.gc_minor /. nf);
      m "gc.major_collections" "count/job" (float_of_int ph.gc_major /. nf);
      m "gc.alloc_mb_per_job" "MB"
        (ph.alloc_words *. float_of_int (Sys.word_size / 8) /. 1e6 /. nf);
      m "trace.jobs" "count" jobs;
      m "trace.overhead_ratio" "ratio" (trace_overhead tr);
    ]

(* --- output ------------------------------------------------------------ *)

let json_number x =
  if Float.is_finite x then Printf.sprintf "%.17g" x
  else failwith "metric is not a finite number"

let print_result ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun mt ->
        Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" mt.mname
          (json_number mt.value) mt.unit_)
      metrics
  in
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed (String.concat ", " fields)

let usage () =
  prerr_endline
    "usage: main.exe --workload (nested-4k|repeat-4k|stream-mixed|stream-closed) \
     [--seed N] [--seconds S] [--trace 0|1]";
  exit 2

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := int_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  let w =
    match List.find_opt (fun w -> w.name = !workload) workloads with
    | Some w -> w
    | None -> usage ()
  in
  if !seconds < 1 || (!trace <> 0 && !trace <> 1) then usage ();
  let seed = !seed and traced = !trace = 1 in
  ensure_dir out_dir;
  Printf.printf "# svcbench workload=%s seed=%d seconds=%d trace=%d\n" w.name
    seed !seconds !trace;
  Printf.printf "# host nproc=%d domains=%d ocaml=%s seed=%d\n%!" nproc domains
    Sys.ocaml_version seed;
  let measured = float_of_int !seconds *. if traced then 0.5 else 1. in
  let env, first = timed_setup w ~seed ~seconds:measured in
  let ph =
    Fun.protect
      ~finally:(fun () -> shutdown_env env)
      (fun () -> run_phase w env ~seconds:measured)
  in
  let setup_s = setup_median w ~seed ~seconds:measured ~first in
  let prefix = prefix_records w env ph in
  let failures, fp = check_records w ~seed ph prefix in
  Printf.printf "# fingerprint %s (%s)\n" fp
    (match List.assoc_opt (w.name, seed) stored_fingerprints with
    | Some _ -> "checked against the stored value"
    | None -> "no stored value for this seed");
  let tr =
    if traced then Some (traced_run w ~seed ~seconds:measured) else None
  in
  let failures =
    failures @ match tr with Some t -> t.mismatches | None -> []
  in
  let attempted = List.length ph.records in
  let failed = List.length (List.filter (fun r -> not r.ok) ph.records) in
  if failures <> [] then (
    List.iter (fun f -> Printf.printf "# CHECK FAILED %s\n" f) failures;
    print_result ~correct:false ~attempted ~failed [];
    exit 1);
  let metrics =
    match tr with
    | None ->
        let e2e, note = end_to_end w ph ~setup_s ~prefix in
        Printf.printf "# %s\n" note;
        e2e
    | Some tr ->
        let path =
          Filename.concat out_dir
            (Printf.sprintf "spans-%s-seed%d.jsonl" w.name seed)
        in
        Mirror.write_jsonl path;
        Printf.printf "# %d traced jobs, mirror = run_job on each; spans in %s\n"
          tr.jobs path;
        per_layer ph tr
  in
  List.iter
    (fun mt -> Printf.printf "%-32s %16.4f %s\n" mt.mname mt.value mt.unit_)
    metrics;
  print_result ~correct:true ~attempted ~failed metrics
