(** A mutex-guarded, fixed-capacity ring of the most recent elements.

    The span recorder's finished records, the slow-query log and the
    IFC audit log all keep their newest [capacity] entries here, with
    an exact count of everything ever pushed.  Every operation takes
    the ring's mutex, so pushes and reads may come from any domain. *)

type 'a t

val create : capacity:int -> 'a t
(** An empty ring holding at most [max 1 capacity] elements.  Its
    slots are allocated on the first {!push} and hold elements
    unboxed, so a ring nobody pushes to costs a few words, and a full
    one one word per slot. *)

val push : 'a t -> (int -> 'a) -> unit
(** [push t make] appends [make seq], where [seq] is the number of
    elements pushed before it.  [make] runs under the ring's mutex, so
    sequence numbers (and any side effect of [make]) follow ring
    order. *)

val count : 'a t -> int
(** Elements ever pushed (not bounded by capacity). *)

val capacity : 'a t -> int

val recent : 'a t -> int -> 'a list
(** The last [n] retained elements, newest first.  A negative [n]
    yields [[]]. *)
