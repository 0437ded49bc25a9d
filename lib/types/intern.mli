(** Hash-consed interning for small hot-path values.

    Maps structurally equal values to one physical representative so
    repeated values (descriptor field names, descriptor values) share
    storage.  Tables are bounded (reset wholesale at capacity); every
    interned value stays valid after a reset — only future sharing is
    lost — so callers never need to care about residency.  Whole attribute sets, path vector included, are
    canonicalised by [Dbgp_core.Attr_table], not here.

    The string table below is what the codec uses; the {!Make} functor
    builds additional per-type tables (the codec's descriptor-value
    table).

    Domain-safety: the shared table (and the loop memo) are
    domain-local — each OCaml 5 domain lazily creates its own instance
    on first use, so sharded simulations intern lock-free.  Interning is
    semantically transparent, so per-domain canonicalization is sound:
    values crossing domains merely lose the pointer-equality fast path
    and fall back to structural comparison.  {!clear_all} refers to
    the calling domain's tables. *)

module type HashedType = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module type S = sig
  type value
  type t

  val create : ?max_size:int -> int -> t
  (** [create ?max_size n] makes a table with initial capacity [n];
      when [max_size] (default 65536) entries are reached the table is
      reset wholesale. *)

  val intern : t -> value -> value
  (** Canonical representative: two structurally equal arguments return
      the same physical value while the table retains the first. *)

  val clear : t -> unit
end

module Make (H : HashedType) : S with type value = H.t

val string : string -> string
(** Canonical representative for small repeated strings (descriptor
    field names). *)

val has_loop : Path_elem.t list -> bool
(** [Path_elem.has_loop] behind a direct-mapped identity memo —
    repeated checks of the same (physically) vector are O(1).  Sound
    for any argument, fast for physically shared ones. *)

val clear_all : unit -> unit
(** Reset the string table and the loop memo (tests, and leak-proof
    teardown paths). *)
