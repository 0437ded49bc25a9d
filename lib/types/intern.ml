(* Hash-consed interning for small values repeated in every
   advertisement: descriptor field names here, and descriptor values
   through a {!Make} table in the codec.  Interning maps structurally
   equal values to one physical representative, so a decoded table
   holds one copy of each instead of one per route.  Whole attribute
   sets (path vector included) are canonicalised once, by the
   attribute table in the core library.

   Tables are bounded: when a table reaches [max_size] it is reset
   wholesale.  A reset only costs future sharing — every value handed
   out remains valid and immutable — so correctness never depends on
   residency. *)

module type HashedType = sig
  type t

  val equal : t -> t -> bool
  val hash : t -> int
end

module type S = sig
  type value
  type t

  val create : ?max_size:int -> int -> t
  val intern : t -> value -> value
  val clear : t -> unit
end

module Make (H : HashedType) : S with type value = H.t = struct
  module T = Hashtbl.Make (H)

  type value = H.t
  type t = { tbl : H.t T.t; max_size : int }

  let create ?(max_size = 65_536) n = { tbl = T.create n; max_size }

  let intern t x =
    match T.find_opt t.tbl x with
    | Some y -> y
    | None ->
      if T.length t.tbl >= t.max_size then T.reset t.tbl;
      T.add t.tbl x x;
      x

  let clear t = T.reset t.tbl
end

(* ------------------------------------------------------------------ *)
(* Strings (descriptor field names): a small closed set repeated in
   every advertisement.

   The shared table is domain-local (one instance per OCaml 5 domain,
   created lazily on first use).  Interning is semantically transparent
   — it only decides which physical representative a structurally-equal
   value maps to — so two domains interning the same value
   independently is sound, and the sharded simulator runs one region
   per domain with no locks on the update hot path. *)

module Str_tbl = Make (struct
  type t = string

  let equal = String.equal
  let hash = Hashtbl.hash
end)

let strs_key =
  Domain.DLS.new_key (fun () -> Str_tbl.create 64)

let string s = Str_tbl.intern (Domain.DLS.get strs_key) s

(* ------------------------------------------------------------------ *)
(* Loop-check memo: [Path_elem.has_loop] walks the vector building
   scratch sets on every ingress filter run.  Fanned-out announces
   carry one physical vector (the export cache hands every peer-group
   member the same outgoing IA, and the attribute table re-points
   stored routes at one canonical set), so a small direct-mapped
   identity cache answers most checks in O(1).
   Sound for any list (the slot key is compared by pointer), merely
   ineffective for unshared ones.  Domain-local for the same reason as
   the string table: the memo is a pure accelerator, so private
   per-domain copies cost only warm-up. *)

let loop_slots = 512

(* Keys and answers in two arrays, so recording a miss allocates
   nothing. *)
type loop_memo = { keys : Path_elem.t list array; loops : Bytes.t }

let loop_memo_key =
  Domain.DLS.new_key (fun () ->
      { keys = Array.make loop_slots []; loops = Bytes.make loop_slots '\000' })

let has_loop = function
  | [] -> false
  | pv ->
    let m = Domain.DLS.get loop_memo_key in
    let slot = Hashtbl.hash pv land (loop_slots - 1) in
    if Array.unsafe_get m.keys slot == pv then
      Bytes.unsafe_get m.loops slot <> '\000'
    else begin
      let r = Path_elem.has_loop pv in
      Array.unsafe_set m.keys slot pv;
      Bytes.unsafe_set m.loops slot (if r then '\001' else '\000');
      r
    end

let clear_all () =
  Str_tbl.clear (Domain.DLS.get strs_key);
  let m = Domain.DLS.get loop_memo_key in
  Array.fill m.keys 0 loop_slots []
