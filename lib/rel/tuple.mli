(** Tuples: a value vector plus an immutable information-flow label
    (section 4.1 — IFDB labels at tuple granularity). *)

type t = private {
  values : Value.t array;
  label : Ifdb_difc.Label.t;
  label_id : int;
      (** the label's {!Ifdb_difc.Label_store} id, or [-1] for a derived
          query row built without interning (a join or a declassifying
          view's output).  A stored tuple always carries its id
          ({!Ifdb_storage.Heap.insert} rejects [-1]), the paper's 4-byte
          [_label] reference into the deduplicated label table
          (section 7.1). *)
}

val make : values:Value.t array -> label:Ifdb_difc.Label.t -> t
(** A derived row without an interned label ([label_id = -1]) — except
    that the empty label is always id 0 in every store, so public rows
    are born interned.  Storage refuses a [-1] row: a stored tuple
    under a non-empty label comes from {!make_interned}. *)

val make_interned :
  values:Value.t array -> label:Ifdb_difc.Label.t -> label_id:int -> t
(** A tuple whose label has been interned; [label] should be the
    store's canonical value for [label_id] so equality checks hit the
    pointer fast path.  Raises [Invalid_argument] on a negative id. *)

val values : t -> Value.t array
val label : t -> Ifdb_difc.Label.t

val label_id : t -> int
(** The interned label id, or [-1] for a derived row.  Storage and the
    enforcement paths compare label ids, never labels. *)

val get : t -> int -> Value.t
val arity : t -> int

val project : t -> int array -> t
(** [project t idxs] keeps the selected columns; the label is
    unchanged (every field carries the whole tuple's contamination). *)

val byte_size : t -> int
(** Storage footprint in the paper's cost model (section 8.3): a
    24-byte header (which includes the label-length byte), the values,
    and 4 bytes per label tag. *)

val byte_size_unlabeled : t -> int
(** Footprint with IFC compiled out: no label bytes at all — the
    baseline ("PostgreSQL") representation used by the benchmarks. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
