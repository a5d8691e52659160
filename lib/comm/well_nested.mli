(** Well-nestedness check with certificates.

    A right-oriented communication set is {e well-nested} when its sources
    and destinations form a balanced parenthesis expression (paper §2.1) —
    equivalently, when no two communications cross.  [check] produces either
    the nesting forest (a positive certificate) or a concrete violation
    witness usable in error messages and failure-injection tests. *)

type violation =
  | Not_right_oriented of Comm.t
      (** A member has [dst < src]; mirror or decompose the set first. *)
  | Crossing of Comm.t * Comm.t
      (** Two members interleave as [s1 < s2 < d1 < d2]. *)

val validate : Comm_set.t -> (unit, violation) result
(** The verdict of {!check} without building the forest: one walk of
    the endpoints in PE order, O(size log size). *)

val check : Comm_set.t -> (Nest_forest.t, violation) result
(** {!validate}, then the nesting forest as the positive certificate. *)

val is_well_nested : Comm_set.t -> bool

val crossing_pairs : Comm_set.t -> (Comm.t * Comm.t) list
(** All crossing pairs of a right-oriented set (O(M²); for diagnostics). *)

val pp_violation : Format.formatter -> violation -> unit
