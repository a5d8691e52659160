(** Byte-bounded LRU cache of compiled routing plans.

    The batch service keys each cacheable run by its structural
    signature ({!Cst.Canon}), the algorithm name, the execution engine
    and the tree size; a hit replays the frozen plan
    ({!Padr.Plan.replay}) instead of re-running the scheduler.  The
    cache is one shared [Mutex]-guarded structure per service pool —
    scheduling itself happens outside the lock, which only protects the
    table, the recency stamps and the byte budget — with per-domain
    hit/miss/eviction counters so a multi-domain pool's accounting has
    no contended hot word beyond the table lock itself.

    Eviction is least-recently-used by total frozen-event bytes
    ({!Padr.Plan.bytes}): inserting beyond the budget evicts the oldest
    stamps until the total fits.  A plan alone exceeding the whole
    budget is not admitted.  The victim scan is linear in the number of
    resident plans, which the byte bound keeps small.

    {2 Disk tier}

    Opened with a {!Plan_store}, the cache becomes the memory tier of a
    two-level hierarchy: evictions {e spill} (a plan not yet on disk is
    written to the store before being dropped), misses {e fault} (a
    store hit is decoded, re-admitted to memory and served — the caller
    cannot tell which tier answered), and {!flush} persists the
    still-dirty residents, which the service calls on shutdown so a
    restart against the same directory warm-starts.  Each plan is
    written at most once; plans faulted from disk are already durable
    and evict without rewriting. *)

type key = {
  algo : string;  (** registry name *)
  engine : bool;  (** message-passing engine vs functional scheduler *)
  shape : Cst.Shape.t;  (** topology shape jobs of this key run on *)
  base : int;
      (** placement pin: [0] for binary shapes (whose plans replay at
          any compatible placement); the set's aligned-block base for
          non-binary shapes, whose plans replay only where compiled *)
  canon : Cst.Canon.t;  (** full structural signature (collision-proof) *)
}

type t

val create : ?max_bytes:int -> ?store:Plan_store.t -> domains:int -> unit -> t
(** [max_bytes] defaults to 32 MiB of frozen plan arenas.  [store]
    attaches the disk tier (omitted: memory only).  [domains] sizes the
    per-domain counter arrays; worker indices passed to {!find}/{!add}
    must be in [0, domains). *)

val find : t -> worker:int -> key -> Padr.Plan.t option
(** Looks the key up, refreshing its recency stamp and counting a
    memory hit or miss against [worker]'s slot.  On a memory miss with
    a disk tier attached, faults the key from the store (the store
    keeps its own hit/miss counters): a disk hit is admitted to memory
    and returned, so [Some] means "served from the hierarchy". *)

val add : t -> worker:int -> key -> Padr.Plan.t -> unit
(** Inserts a freshly compiled plan, evicting LRU entries beyond the
    byte budget (counted against [worker]; evicted dirty plans spill to
    the store when one is attached).  If the key is already resident —
    two workers compiled the same structure concurrently — the resident
    plan is kept and the duplicate dropped. *)

val flush : t -> unit
(** Writes every resident plan the store does not yet hold.  No-op
    without a disk tier. *)

val clear : t -> unit
(** Empties the memory tier, after writing the plans the store does not
    yet hold (as {!flush}).  The hit/miss/eviction counters are kept;
    dropped plans do not count as evictions. *)

type stats = {
  hits : int;
  misses : int;
  evictions : int;
  entries : int;  (** resident plans *)
  bytes : int;  (** resident frozen bytes *)
  max_bytes : int;
  per_domain : (int * int * int) array;  (** (hits, misses, evictions) *)
  store : Plan_store.stats option;
      (** the disk tier's counters; [None] without one *)
}

val stats : t -> stats

val sections : stats -> Stats.t
(** The memory tier as one ["plan_cache"] {!Stats.section} (with a
    derived [hit_pct]), followed by the disk tier's section when a store
    is attached ({!Plan_store.sections}).  Per-domain counters are not
    included — render those from [per_domain] directly. *)

val pp_stats : Format.formatter -> stats -> unit
(** [Stats.pp] of {!sections}: one line for the memory tier, plus one
    for the disk tier when attached. *)
