(** Refcounted shared attribute-set table — the memory half of the
    compact route store.

    Attribute sets (everything in an IA except the prefix) repeat
    massively across a routing table; this table maps each distinct set
    to one canonical physical representative with a dense integer id,
    so a RIB entry storing a shared IA degenerates to the int pair
    (prefix, attribute-set id) — {!Dbgp_types.Prefix.t} is itself an
    immediate int.  This is the one canonicalisation point for
    attribute sets: decoded IAs arrive unshared and meet here.

    The table is uncapped.  It holds exactly the sets some RIB holds,
    since a set whose refcount reaches zero leaves it; so a release
    always decrements the entry its own share incremented.

    Refcounting governs only table membership (which sets are offered
    for future sharing), never memory safety: attribute lists are
    GC-managed, so an unbalanced release costs sharing efficiency, not
    correctness.  {!Speaker} owns the acquire/release discipline —
    Adj-RIB-In stores, local originations and Loc-RIB chosen entries
    acquire; their eviction releases.

    Domain-local, like the {!Dbgp_types.Intern} tables: each OCaml 5
    domain shares within itself, lock-free.  Counters
    ([attr_table.hits]/[.misses]/[.evictions]) and the
    [attr_table.occupancy] gauge live in the calling domain's
    registry, {!metrics}. *)

val share : Ia.t -> Ia.t
(** Acquire one reference to the IA's attribute set and return the IA
    re-pointed at the canonical physical attribute fields (the IA
    itself when already canonical).  Inserts the set (with refcount 1
    and a fresh dense id) when absent. *)

val release : Ia.t -> unit
(** Drop one reference to the IA's attribute set.  At zero the entry
    leaves the table ([attr_table.evictions]) and its dense id returns
    to the free list.  A release of a set that is not resident is a
    no-op. *)

val id_of : Ia.t -> int option
(** The dense id of the IA's attribute set, if resident.  Ids are dense
    in [0, live-sets): freed ids are reused before fresh ones. *)

val refcount : Ia.t -> int option
(** Current reference count of the IA's attribute set (tests). *)

val occupancy : unit -> int
(** Resident attribute sets in the calling domain's table. *)

val metrics : unit -> Dbgp_obs.Metrics.t
(** The calling domain's [attr_table.*] registry. *)

val reset : unit -> unit
(** Empty the table and zero its registry (tests). *)
