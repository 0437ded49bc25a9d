(* Seeded trace generator.  Everything the program receives is made
   here from the seed and handed over as encoded frames.

   A table is a set of /24 prefixes grouped into attribute sets.  Set
   sizes are geometric with mean 8, so prefixes share attributes as in
   real tables.  Each set is held by [holders] of the [peers]
   neighbours; each holder announces every prefix of the set with one
   path of its own, so all prefixes of a (set, holder) group share one
   attribute set.  [desc_bytes > 0] gives each set one opaque path
   descriptor of that many seeded bytes, owned by three protocols the
   speaker does not run.

   The generator keeps the route every neighbour holds for every
   prefix ([cur]) as it emits frames, which is what the benchmark checks
   the program's state against. *)

open Dbgp_types
module Ia = Dbgp_core.Ia
module Codec = Dbgp_core.Codec
module Peer = Dbgp_core.Peer
module Value = Dbgp_core.Value

let speaker_asn = Asn.of_int 64512
let speaker_addr = Ipv4.of_octets 192 168 1 1
let peer_asn k = 65001 + k
let peer k =
  Peer.make ~asn:(Asn.of_int (peer_asn k)) ~addr:(Ipv4.of_octets 192 168 0 (1 + k))

let opaque_owners =
  List.init 3 (fun i ->
      Protocol_id.register ~kind:Protocol_id.Critical_fix
        (Printf.sprintf "perfbench-opaque-%d" i))

type frame = { from : int; announce : bool; wire : string }

type set = {
  first : int;
  size : int;
  holders : int array;
  desc : string option;
}

type table = {
  peers : int;
  prefixes : Prefix.t array;
  sets : set array;
  index : (Prefix.t, int) Hashtbl.t;
  cur : Path_elem.t list array;
      (* prefix i, neighbour k at [i * peers + k]; [] = no route *)
}

(* Distinct /24s: multiplication by an odd constant permutes 24-bit
   networks; the seed shifts which ones are used. *)
let prefix_of ~seed i =
  let net = ((i + (seed * 7919)) * 2654435761) land 0xFFFFFF in
  Prefix.make (Ipv4.of_int (net lsl 8)) 24

(* Geometric set sizes (support 1, 2, ...), drawn by inverse CDF at
   stratified uniforms: each batch of [strata] draws takes one uniform
   from each of [strata] equal slices of [0, 1) and shuffles them.  The
   sizes keep the geometric shape while the number of sets for a given
   prefix count barely moves between seeds, so neither do the bytes. *)
let strata = 64

let geometric_sizes rng ~mean ~total =
  let q = log (1. -. (1. /. mean)) in
  let sizes = ref [] and sum = ref 0 in
  while !sum < total do
    let batch =
      Array.init strata (fun j ->
          let u = (float_of_int j +. Prng.float rng 1.0) /. float_of_int strata in
          max 1 (int_of_float (Float.ceil (log (1. -. u) /. q))))
    in
    Prng.shuffle rng batch;
    Array.iter
      (fun s ->
        if !sum < total then begin
          let s = min s (total - !sum) in
          sizes := s :: !sizes;
          sum := !sum + s
        end)
      batch
  done;
  List.rev !sizes

(* Transit ASes stay below AS_TRANS (23456) and away from the private
   range the speaker and its neighbours use. *)
let random_path rng ~k =
  let origin = Prng.int_in rng 1 23000 in
  let rec transit acc n =
    if n = 0 then acc
    else
      let a = Prng.int_in rng 1 23000 in
      if a = origin || List.mem a acc then transit acc n
      else transit (a :: acc) (n - 1)
  in
  let mid = transit [] (Prng.int_in rng 0 3) in
  List.map
    (fun a -> Path_elem.As (Asn.of_int a))
    ((peer_asn k :: mid) @ [ origin ])

let seeded_bytes rng n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Prng.int rng 256))
  done;
  Bytes.unsafe_to_string b

let table rng ~seed ~prefixes ~peers ~holders ~desc_bytes =
  let first = ref 0 in
  let sets =
    List.map
      (fun size ->
        let holders = Prng.sample rng holders (Array.init peers Fun.id) in
        Array.sort compare holders;
        let desc =
          if desc_bytes > 0 then Some (seeded_bytes rng desc_bytes) else None
        in
        let s = { first = !first; size; holders; desc } in
        first := !first + size;
        s)
      (geometric_sizes rng ~mean:8. ~total:prefixes)
  in
  let prefixes = Array.init prefixes (prefix_of ~seed) in
  let index = Hashtbl.create (Array.length prefixes) in
  Array.iteri (fun i p -> Hashtbl.replace index p i) prefixes;
  { peers;
    prefixes;
    sets = Array.of_list sets;
    index;
    cur = Array.make (Array.length prefixes * peers) [] }

let announce t ~i ~k ~desc path =
  t.cur.((i * t.peers) + k) <- path;
  let ia =
    Ia.originate ~prefix:t.prefixes.(i) ~origin_asn:speaker_asn
      ~next_hop:(peer k).Peer.addr ()
  in
  let ia = { ia with Ia.path_vector = path } in
  let ia =
    match desc with
    | None -> ia
    | Some b ->
      Ia.set_path_descriptor ~owners:opaque_owners ~field:"perfbench-opaque"
        (Value.Bytes b) ia
  in
  { from = k; announce = true; wire = Codec.encode ia }

let withdraw t ~i ~k =
  t.cur.((i * t.peers) + k) <- [];
  { from = k; announce = false; wire = Codec.encode_withdraw t.prefixes.(i) }

(* Every holder announces every prefix of its sets, in a seeded
   shuffled order (the neighbours' sessions interleave). *)
let load rng t =
  let frames = ref [] in
  Array.iter
    (fun s ->
      Array.iter
        (fun k ->
          let path = random_path rng ~k in
          for i = s.first to s.first + s.size - 1 do
            frames := announce t ~i ~k ~desc:s.desc path :: !frames
          done)
        s.holders)
    t.sets;
  let a = Array.of_list !frames in
  Prng.shuffle rng a;
  a

(* Replay trace: the load, then one churn pass in which each route is
   withdrawn with probability [withdraw] or re-announced with its
   group's new path (implicit replace) with probability [replace]. *)
let replay rng t ~replace ~withdraw:p_withdraw =
  let loaded = load rng t in
  let churn = ref [] in
  Array.iter
    (fun s ->
      Array.iter
        (fun k ->
          let path = random_path rng ~k in
          for i = s.first to s.first + s.size - 1 do
            let r = Prng.float rng 1.0 in
            if r < p_withdraw then churn := withdraw t ~i ~k :: !churn
            else if r < p_withdraw +. replace then
              churn := announce t ~i ~k ~desc:s.desc path :: !churn
          done)
        s.holders)
    t.sets;
  let churn = Array.of_list !churn in
  Prng.shuffle rng churn;
  Array.append loaded churn

(* Endless churn over a loaded table: a random (prefix, neighbour) route
   is withdrawn with probability [withdraw] when present, otherwise
   (re-)announced with one of [pool] seeded paths of that neighbour. *)
type stream = { rng : Prng.t; t : table; pool : Path_elem.t list array array }

let stream rng t ~pool =
  let paths k = Array.init pool (fun _ -> random_path rng ~k) in
  { rng; t; pool = Array.init t.peers paths }

let churn s ~withdraw:p_withdraw n =
  let t = s.t in
  Array.init n (fun _ ->
      let i = Prng.int s.rng (Array.length t.prefixes) in
      let k = Prng.int s.rng t.peers in
      if t.cur.((i * t.peers) + k) <> [] && Prng.float s.rng 1.0 < p_withdraw
      then withdraw t ~i ~k
      else
        let pool = s.pool.(k) in
        announce t ~i ~k ~desc:None pool.(Prng.int s.rng (Array.length pool)))

(* LPM probe addresses: mostly hosts inside table prefixes (live or
   not), the rest anywhere. *)
let lookups s n =
  let t = s.t in
  Array.init n (fun _ ->
      if Prng.int s.rng 10 < 9 then
        let p = t.prefixes.(Prng.int s.rng (Array.length t.prefixes)) in
        Ipv4.of_int (Ipv4.to_int (Prefix.network p) lor Prng.int s.rng 256)
      else Ipv4.of_int (Prng.int s.rng 0x40000000 lsl 2 lor Prng.int s.rng 4))

(* The neighbours whose current path for prefix [i] is shortest. *)
let best_holders t i =
  let best = ref max_int and who = ref [] in
  for k = 0 to t.peers - 1 do
    match t.cur.((i * t.peers) + k) with
    | [] -> ()
    | path ->
      let l = List.length path in
      if l < !best then begin
        best := l;
        who := [ k ]
      end
      else if l = !best then who := k :: !who
  done;
  !who

(* What a correct FIB answers for [addr]: every table prefix is a /24,
   so the longest match is the address's own /24 or nothing. *)
let expected_next_hops t addr =
  let p = Prefix.make addr 24 in
  match Hashtbl.find_opt t.index p with
  | None -> []
  | Some i -> List.map (fun k -> (peer k).Peer.addr) (best_holders t i)
