(* Workload inputs.  Every input is a function of the seed and the job
   index alone, so a run's inputs never depend on timing; the benchmark
   hands the service only the generated jobs. *)

open Cst_service
module Prng = Cst_util.Prng
module Comm_set = Cst_comm.Comm_set

type job = {
  job : Service.job;
  binary_wn : bool;
      (** a right-oriented well-nested set on a binary tree: its outcome is
          one schedule, so Theorems 5 and 8 are checked on it *)
}

let rng_for ~seed ~salt i = Prng.create (Hashtbl.hash (seed, salt, i))

(* [set], defined over [Comm_set.n set] PEs, moved to leaf [offset] of an
   [n]-PE range. *)
let embed ~n ~offset set =
  Comm_set.create_exn ~n
    (Array.to_list
       (Array.map
          (fun (c : Cst_comm.Comm.t) ->
            Cst_comm.Comm.make ~src:(c.src + offset) ~dst:(c.dst + offset))
          (Comm_set.comms set)))

(* Structural signatures already handed out, so that a workload that must
   bypass the plan cache never repeats a set up to aligned translation.
   Only an MD5 of each signature is kept, so the table stays small next
   to what the service holds however long a run is. *)
module Seen = struct
  type t = (Digest.t, unit) Hashtbl.t

  let create () : t = Hashtbl.create 64

  let add_if_fresh (t : t) set =
    let canon = (Cst.Canon.place set).canon in
    let key =
      Digest.string
        (Marshal.to_string (Cst.Canon.align canon, Cst.Canon.offsets canon) [])
    in
    if Hashtbl.mem t key then false
    else (
      Hashtbl.replace t key ();
      true)
end

(* --- nested-4k --------------------------------------------------------- *)

let nested_n = 4096

(* Eight width classes, log-spaced over [N/64, N/16].  A job costs about
   w N or more (the recursive [Csa.run] behind [Spec] takes 4 s at
   w = N/2 here), so wider classes would leave a run with a handful of
   slow jobs, too few for its medians to be steady.  [Spec] takes the
   lower four classes and [Message_passing] the upper four. *)
let nested_classes =
  Array.init 8 (fun k ->
      float_of_int (nested_n / 64) *. (4. ** (float_of_int k /. 7.)))

type kind = Onion | Comb | With_width

(* One cycle of eight jobs: engine, width class and kind of each.  They
   depend on the job index only, so every seed runs the same cost profile
   and a seed changes only jitter, filler and placement. *)
let nested_cycle =
  Service.
    [|
      (Message_passing, 7, Onion);
      (Spec, 0, Comb);
      (Message_passing, 5, With_width);
      (Spec, 2, Onion);
      (Message_passing, 6, With_width);
      (Spec, 1, With_width);
      (Message_passing, 4, Comb);
      (Spec, 3, Comb);
    |]

type nested = { n_seed : int; seen : Seen.t }

let nested ~seed = { n_seed = seed; seen = Seen.create () }

(* Job [i] of the sequence.  Must be called for i = 0, 1, 2, ... in order:
   uniqueness is enforced against the sets generated before.  Job 0 is
   the full onion, of width N/2, run once. *)
let nested_job g i =
  let n = nested_n in
  let rng = rng_for ~seed:g.n_seed ~salt:1 i in
  let engine, cls, kind = nested_cycle.(i mod Array.length nested_cycle) in
  let lo = n / 64 and hi = n / 16 in
  let target = nested_classes.(cls) *. (1. +. Prng.float rng 0.08 -. 0.04) in
  let make w =
    match kind with
    | Onion -> Cst_workloads.Gen_wn.onion ~n ~width:w
    | Comb ->
        Cst_workloads.Gen_wn.nested_blocks rng ~n
          ~blocks:(max 1 (min 8 (n / (2 * Cst_util.Bits.ceil_pow2 w))))
          ~depth:w
    | With_width -> Cst_workloads.Gen_wn.with_width rng ~n ~width:w
  in
  (* On a repeat, the nearest unused width: w, w+1, w-1, w+2, ... *)
  let rec fresh w0 k =
    let w = w0 + (if k mod 2 = 0 then k / 2 else -((k + 1) / 2)) in
    if w < lo || w > hi then fresh w0 (k + 1)
    else
      let set = make w in
      if Seen.add_if_fresh g.seen set then set else fresh w0 (k + 1)
  in
  let set =
    if i = 0 then Cst_workloads.Gen_wn.onion ~n ~width:(n / 2)
    else fresh (max lo (min hi (int_of_float target))) 0
  in
  if i = 0 then ignore (Seen.add_if_fresh g.seen set);
  { job = Service.job ~engine ~id:i ~algo:"csa" set; binary_wn = true }

(* Onions below the measured width range: they start the domains and
   size the heap without touching a measured signature. *)
let nested_warmup ~domains =
  List.init domains (fun k ->
      Service.job ~id:(-1 - k) ~algo:"csa"
        (Cst_workloads.Gen_wn.onion ~n:nested_n ~width:(48 + k)))

(* --- repeat-4k --------------------------------------------------------- *)

let repeat_n = 4096
let engines = [| Service.Spec; Service.Message_passing; Service.Segmented |]

type template = { m : int; tset : Comm_set.t  (** over [m] PEs *) }

(* Pairs, staircase and segbus sets and three sparse and three blocks
   sets, over 64, 128 and 256 PEs.  The templates are the same on every
   seed, so the [sim_*] sums are too; the seed moves each job to its own
   aligned offset. *)
let templates () =
  let rng = Prng.create 2 in
  List.concat_map
    (fun m ->
      [
        Cst_workloads.Gen_wn.pairs ~n:m;
        Cst_workloads.Patterns.staircase_exn ~n:m;
        Cst_workloads.Patterns.segment_neighbors_exn ~n:m;
      ]
      @ List.concat_map
          (fun _ ->
            [
              Cst_workloads.Gen_wn.uniform rng ~n:m ~density:0.1;
              Cst_workloads.Gen_wn.nested_blocks rng ~n:m ~blocks:4
                ~depth:(min 4 (m / 8));
            ])
          [ 0; 1; 2 ]
      |> List.map (fun tset -> { m; tset }))
    [ 64; 128; 256 ]
  |> Array.of_list

(* Each template runs under all three engines in a row, at a random
   aligned offset, which the plan cache treats as congruent. *)
let repeat_job ~seed templates i =
  let t = templates.((i / 3) mod Array.length templates) in
  let rng = rng_for ~seed ~salt:3 i in
  let offset = t.m * Prng.int rng (repeat_n / t.m) in
  {
    job =
      Service.job ~engine:engines.(i mod 3) ~id:i ~algo:"csa"
        (embed ~n:repeat_n ~offset t.tset);
    binary_wn = true;
  }

(* Every template under every engine: fills the plan cache, so the
   measured phase replays. *)
let repeat_warmup templates =
  Array.to_list templates
  |> List.concat_map (fun t ->
         Array.to_list engines
         |> List.map (fun engine ->
                Service.job ~engine ~id:(-1) ~algo:"csa"
                  (embed ~n:repeat_n ~offset:0 t.tset)))

(* --- stream-mixed and stream-closed ----------------------------------- *)

let stream_n = 512
let kary_shape = Cst.Shape.kary ~k:4 ~leaves:256

type slot = Unique | Crossing | Kary | Repeat

(* Per ten arrivals: five unique well-nested sets, two crossing sets, one
   4-ary job and two translated repeats. *)
let stream_pattern =
  [| Unique; Unique; Crossing; Unique; Repeat; Unique; Kary; Unique;
     Crossing; Repeat |]

(* A repeat re-sends the unique set this many unique jobs back, which is
   long enough for its plan to leave the small memory cache. *)
let repeat_distance = 40

let suite_makers =
  [|
    (fun rng ~n -> Cst_workloads.Gen_wn.uniform rng ~n ~density:0.5);
    (fun rng ~n -> Cst_workloads.Gen_wn.uniform rng ~n ~density:1.0);
    (fun rng ~n -> Cst_workloads.Gen_wn.uniform rng ~n ~density:0.25);
    (fun rng ~n ->
      Cst_workloads.Gen_wn.with_width rng ~n ~width:(Prng.int_in rng 4 (n / 8)));
  |]

type stream = {
  s_seed : int;
  s_seen : Seen.t;
  uniques : (int, Comm_set.t * int * int) Hashtbl.t;
      (** the k-th unique set, with its tile size and offset; only the
          last [repeat_distance + 1] are kept *)
  mutable nuniq : int;
}

let stream ~seed =
  {
    s_seed = seed;
    s_seen = Seen.create ();
    uniques = Hashtbl.create 1024;
    nuniq = 0;
  }

(* Arrival [i] of the sequence.  Must be called for i = 0, 1, 2, ... in
   order: repeats refer back to the unique sets generated before. *)
let stream_job g i =
  let rng = rng_for ~seed:g.s_seed ~salt:4 i in
  let kind =
    match stream_pattern.(i mod Array.length stream_pattern) with
    | Repeat when g.nuniq <= repeat_distance -> Unique
    | k -> k
  in
  match kind with
  | Unique ->
      let m = if Prng.bool rng then 128 else 256 in
      let make = suite_makers.(i mod Array.length suite_makers) in
      let rec fresh () =
        let s = make rng ~n:m in
        if Comm_set.size s > 0 && Seen.add_if_fresh g.s_seen s then s
        else fresh ()
      in
      let s = fresh () in
      let offset = m * Prng.int rng (stream_n / m) in
      Hashtbl.replace g.uniques g.nuniq (s, m, offset);
      (* later repeats look back from a larger count *)
      Hashtbl.remove g.uniques (g.nuniq - 1 - repeat_distance);
      g.nuniq <- g.nuniq + 1;
      {
        job = Service.job ~id:i ~algo:"csa" (embed ~n:stream_n ~offset s);
        binary_wn = true;
      }
  | Repeat ->
      let s, m, offset =
        Hashtbl.find g.uniques (g.nuniq - 1 - repeat_distance)
      in
      let slots = stream_n / m in
      let offset' =
        m * (((offset / m) + 1 + Prng.int rng (slots - 1)) mod slots)
      in
      {
        job =
          Service.job ~id:i ~algo:"csa" (embed ~n:stream_n ~offset:offset' s);
        binary_wn = true;
      }
  | Crossing ->
      {
        job =
          Service.job ~id:i ~algo:"csa"
            (Cst_workloads.Gen_arbitrary.random_pairs rng ~n:stream_n
               ~pairs:(Prng.int_in rng 8 24));
        binary_wn = false;
      }
  | Kary ->
      let rec fresh () =
        let s = Cst_workloads.Gen_wn.uniform rng ~n:256 ~density:0.5 in
        if Comm_set.size s > 0 && Seen.add_if_fresh g.s_seen s then s
        else fresh ()
      in
      {
        job = Service.job ~shape:kary_shape ~id:i ~algo:"csa" (fresh ());
        binary_wn = false;
      }

(* The whole arrival sequence, [count] jobs. *)
let stream_jobs ~seed ~count = Array.init count (stream_job (stream ~seed))
