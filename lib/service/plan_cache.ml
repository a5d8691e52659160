type key = {
  algo : string;
  engine : bool;
  shape : Cst.Shape.t;
  base : int;
  canon : Cst.Canon.t;
}

module Key = struct
  type t = key

  let equal a b =
    a.engine = b.engine && a.base = b.base
    && String.equal a.algo b.algo
    && Cst.Shape.equal a.shape b.shape
    && Cst.Canon.equal a.canon b.canon

  let hash k =
    Hashtbl.hash
      ( k.algo,
        k.engine,
        k.base,
        Cst.Canon.hash_with ~shape_fp:(Cst.Shape.fingerprint k.shape) k.canon
      )
end

module H = Hashtbl.Make (Key)

(* [on_disk] tracks whether the store already holds this plan's bytes:
   set for entries faulted in from disk and cleared for fresh compiles,
   so spills (eviction) and [flush] write each plan at most once. *)
type entry = {
  plan : Padr.Plan.t;
  size : int;
  mutable stamp : int;
  mutable on_disk : bool;
}

type t = {
  m : Mutex.t;
  table : entry H.t;
  store : Plan_store.t option;
  max_bytes : int;
  mutable bytes : int;
  mutable clock : int;
  hits : int array;
  misses : int array;
  evictions : int array;
}

let create ?(max_bytes = 32 * 1024 * 1024) ?store ~domains () =
  if domains < 1 then invalid_arg "Plan_cache.create: domains < 1";
  {
    m = Mutex.create ();
    table = H.create 64;
    store;
    max_bytes = max 0 max_bytes;
    bytes = 0;
    clock = 0;
    hits = Array.make domains 0;
    misses = Array.make domains 0;
    evictions = Array.make domains 0;
  }

let locked t f =
  Mutex.lock t.m;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.m) f

(* Spill-then-drop: an evicted plan not yet on disk is written to the
   store first, so eviction demotes to the disk tier instead of
   discarding.  Lock order is cache -> store (never the reverse). *)
let evict_lru t ~worker =
  let victim =
    H.fold
      (fun k e acc ->
        match acc with
        | Some (_, best) when best.stamp <= e.stamp -> acc
        | _ -> Some (k, e))
      t.table None
  in
  match victim with
  | None -> ()
  | Some (k, e) ->
      (match t.store with
      | Some st when not e.on_disk ->
          Plan_store.store st ~algo:k.algo ~engine:k.engine e.plan
      | _ -> ());
      H.remove t.table k;
      t.bytes <- t.bytes - e.size;
      t.evictions.(worker) <- t.evictions.(worker) + 1

let admit_locked t ~worker key plan ~on_disk =
  let size = Padr.Plan.bytes plan in
  if (not (H.mem t.table key)) && size <= t.max_bytes then begin
    H.replace t.table key { plan; size; stamp = t.clock; on_disk };
    t.clock <- t.clock + 1;
    t.bytes <- t.bytes + size;
    (* The fresh entry holds the newest stamp, so it is scanned past
       until everything older is gone — and the admission guard means
       the loop always terminates with the entry resident. *)
    while t.bytes > t.max_bytes do
      evict_lru t ~worker
    done
  end

let find t ~worker key =
  locked t (fun () ->
      match H.find_opt t.table key with
      | Some e ->
          e.stamp <- t.clock;
          t.clock <- t.clock + 1;
          t.hits.(worker) <- t.hits.(worker) + 1;
          Some e.plan
      | None -> (
          t.misses.(worker) <- t.misses.(worker) + 1;
          (* fault the miss from the disk tier; a disk hit is admitted
             to memory (already durable, so [on_disk]) and served *)
          match t.store with
          | None -> None
          | Some st -> (
              match
                Plan_store.find st ~algo:key.algo ~engine:key.engine
                  ~shape:key.shape ~base:key.base ~canon:key.canon
              with
              | None -> None
              | Some plan ->
                  admit_locked t ~worker key plan ~on_disk:true;
                  Some plan)))

let add t ~worker key plan =
  locked t (fun () -> admit_locked t ~worker key plan ~on_disk:false)

let flush_locked t =
  match t.store with
  | None -> ()
  | Some st ->
      H.iter
        (fun k e ->
          if not e.on_disk then begin
            Plan_store.store st ~algo:k.algo ~engine:k.engine e.plan;
            e.on_disk <- true
          end)
        t.table

let flush t = locked t (fun () -> flush_locked t)

let clear t =
  locked t (fun () ->
      flush_locked t;
      H.reset t.table;
      t.bytes <- 0)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;
  bytes : int;
  max_bytes : int;
  per_domain : (int * int * int) array;
  store : Plan_store.stats option;
}

let stats t =
  locked t (fun () ->
      let sum = Array.fold_left ( + ) 0 in
      {
        hits = sum t.hits;
        misses = sum t.misses;
        evictions = sum t.evictions;
        entries = H.length t.table;
        bytes = t.bytes;
        max_bytes = t.max_bytes;
        per_domain =
          Array.init (Array.length t.hits) (fun i ->
              (t.hits.(i), t.misses.(i), t.evictions.(i)));
        store = Option.map Plan_store.stats t.store;
      })

let sections s =
  let total = s.hits + s.misses in
  let hit_pct =
    if total = 0 then 0.0
    else 100.0 *. float_of_int s.hits /. float_of_int total
  in
  Stats.section "plan_cache"
    [
      ("hits", Stats.Int s.hits);
      ("lookups", Stats.Int total);
      ("hit_pct", Stats.Float hit_pct);
      ("evictions", Stats.Int s.evictions);
      ("entries", Stats.Int s.entries);
      ("bytes", Stats.Int s.bytes);
      ("max_bytes", Stats.Int s.max_bytes);
    ]
  ::
  (match s.store with None -> [] | Some st -> Plan_store.sections st)

let pp_stats fmt s = Stats.pp fmt (sections s)
