(* The repository benchmark: four closed-loop workloads, one caller, one
   domain.  A step is one unit of closed-loop work; the loop issues the
   next step only when the previous one has returned.

   Run from the root of a checkout:

     dune exec --root . -- ./perfbench/main.exe \
       --workload beagle-bgp --seed 1 --seconds 10 --trace 0

   [--trace 0] prints the end-to-end metrics, [--trace 1] the per-layer
   ones (an untraced half, then a traced half of the same steps).  The
   last line of standard output is one JSON object; the exit code is 1
   when any correctness check fails.  [--workload all] runs all four and
   prints every metric under "<workload>/<metric>"; [--self-test] runs
   each workload twice at small size and compares the deterministic
   counts.  See README.md for the workloads and metrics. *)

open Dbgp_types
module Ia = Dbgp_core.Ia
module Codec = Dbgp_core.Codec
module Speaker = Dbgp_core.Speaker
module Peer = Dbgp_core.Peer
module Attr_table = Dbgp_core.Attr_table
module Network = Dbgp_netsim.Network
module Metrics = Dbgp_obs.Metrics
module Graph = Dbgp_topology.As_graph
module Brite = Dbgp_topology.Brite

(* ------------------------------------------------------------------ *)
(* Growable int vectors and order statistics                           *)

module Ivec = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 1024 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  let length v = v.n
  let get v i = v.a.(i)
end

(* Nearest-rank percentile of the step durations. *)
let percentile (v : Ivec.t) p =
  let a = Array.sub v.Ivec.a 0 v.Ivec.n in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0.
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int
let seconds_since t0 = fi (Span.now_ns () - t0) /. 1e9

(* ------------------------------------------------------------------ *)
(* Program state shared across one domain                               *)

(* The attribute table, the wire caches and the intern tables are
   per-domain and outlive a speaker; every fresh speaker starts from
   empty ones so that repeated passes do identical work. *)
let reset_globals () =
  Attr_table.reset ();
  Codec.wire_metrics_reset ();
  Intern.clear_all ()

let new_speaker peers =
  let sp =
    Speaker.create
      (Speaker.config ~asn:Gen.speaker_asn ~addr:Gen.speaker_addr ())
  in
  (* Customers: every new best route is re-exported to the others. *)
  for k = 0 to peers - 1 do
    Speaker.add_neighbor sp
      (Speaker.neighbor ~relationship:Dbgp_bgp.Policy.To_customer (Gen.peer k))
  done;
  sp

let live_words () =
  Gc.full_major ();
  (Gc.stat ()).Gc.live_words

(* Counters read at layer boundaries.  Speaker counters come from the
   speaker (or all speakers of a network); the others from the calling
   domain's registries. *)
let speaker_counters =
  [ "decision.runs"; "pipeline.runs_saved"; "pipeline.export_cache.hits";
    "pipeline.export_cache.misses"; "updates.duplicate"; "import.rejected" ]

let count reg name = Metrics.count (Metrics.counter reg name)

let read_counts speaker_count =
  List.map (fun n -> (n, speaker_count n)) speaker_counters
  @ List.map
      (fun n -> (n, count (Codec.wire_metrics ()) n))
      [ "wire.encode_cache.hits"; "wire.encode_cache.misses";
        "wire.decode_memo.hits"; "wire.decode_memo.misses" ]
  @ List.map
      (fun n -> (n, count (Attr_table.metrics ()) n))
      [ "attr_table.hits"; "attr_table.misses"; "attr_table.overflow" ]

let sub_counts a b = List.map2 (fun (n, x) (_, y) -> (n, x - y)) a b
let add_counts a b = List.map2 (fun (n, x) (_, y) -> (n, x + y)) a b
let zero_counts = List.map (fun (n, _) -> (n, 0)) (read_counts (fun _ -> 0))

(* ------------------------------------------------------------------ *)
(* One timed phase                                                      *)

type run = {
  traced : bool;
  spans : Span.t;
  n_step : int;
  n_decode : int;
  n_ingest : int;
  n_flush : int;
  n_encode : int;
  n_first_lookup : int;
  n_warm_lookups : int;
  n_fail : int;
  n_recover : int;
  n_run : int;
  step_ns : Ivec.t;
  digests : Ivec.t;  (* rolling digest of the output after each step *)
  mutable digest : int;
  mutable updates : int;
  mutable emits : int;
  mutable alloc_words : float;
  mutable minor_words : float;
  mutable attempted : int;
  mutable failed : int;
  mutable events : int;
  mutable flushes : int;
  mutable warm_lookups : int;
  mutable counts : (string * int) list;
  mutable occupancy : int;
  mutable major0 : int;
  mutable major_collections : int;
  mutable t0 : int;
  mutable a0 : float;
  mutable m0 : float;
  mutable phase_t0 : int;
}

let span_cap = 262_144

let new_run ~traced =
  let spans = Span.create ~cap:(if traced then span_cap else 0) in
  let n = Span.name spans in
  { traced;
    spans;
    n_step = n "step";
    n_decode = n "codec.decode";
    n_ingest = n "speaker.ingest";
    n_flush = n "speaker.flush";
    n_encode = n "codec.encode";
    n_first_lookup = n "fib.first_lookup";
    n_warm_lookups = n "fib.warm_lookups";
    n_fail = n "network.fail_link";
    n_recover = n "network.recover_link";
    n_run = n "network.run";
    step_ns = Ivec.create ();
    digests = Ivec.create ();
    digest = 0;
    updates = 0;
    emits = 0;
    alloc_words = 0.;
    minor_words = 0.;
    attempted = 0;
    failed = 0;
    events = 0;
    flushes = 0;
    warm_lookups = 0;
    counts = zero_counts;
    occupancy = 0;
    major0 = (Gc.quick_stat ()).Gc.major_collections;
    major_collections = 0;
    t0 = 0;
    a0 = 0.;
    m0 = 0.;
    phase_t0 = Span.now_ns () }

let steps r = Ivec.length r.step_ns
let fail r = r.failed <- r.failed + 1

(* Words allocated, each once: minor allocations plus direct major
   allocations (promotions are not new words). *)
let allocated () =
  let minor, promoted, major = Gc.counters () in
  (minor +. major -. promoted, minor)

let step_begin r =
  let a, m = allocated () in
  r.a0 <- a;
  r.m0 <- m;
  if r.traced then begin
    Span.set_step r.spans (steps r);
    Span.enter r.spans r.n_step
  end;
  r.t0 <- Span.now_ns ()

let step_end r =
  let t1 = Span.now_ns () in
  if r.traced then Span.leave r.spans;
  let a, m = allocated () in
  r.alloc_words <- r.alloc_words +. (a -. r.a0);
  r.minor_words <- r.minor_words +. (m -. r.m0);
  Ivec.push r.step_ns (t1 - r.t0)

let mix h x = (h * 1_000_003) lxor x

let end_step_digest r = Ivec.push r.digests r.digest

let end_phase r =
  r.major_collections <- (Gc.quick_stat ()).Gc.major_collections - r.major0

(* [f x], inside a span named [n] when tracing. *)
let in_span r n f x =
  if r.traced then begin
    Span.enter r.spans n;
    let y = f x in
    Span.leave r.spans;
    y
  end
  else f x

(* ------------------------------------------------------------------ *)
(* Speaker-level steps (beagle-*, fib-churn)                            *)

let peers = Array.init 6 Gen.peer

(* One received frame.  Untraced it is exactly [receive_wire ~defer]
   (or its withdraw twin); traced it is the same two calls that
   [receive_wire] makes for clean input — [Codec.decode_robust] and
   [Speaker.ingest] — each in its own span. *)
let feed r sp (f : Gen.frame) =
  let from = peers.(f.Gen.from) in
  if not r.traced then begin
    if f.Gen.announce then
      match Speaker.receive_wire ~defer:true sp ~from f.Gen.wire with
      | Speaker.Rx_accepted 0, _ -> ()
      | _ -> fail r
    else
      match Speaker.receive_wire_withdraw ~defer:true sp ~from f.Gen.wire with
      | Speaker.Rx_withdrawn, _ -> ()
      | _ -> fail r
  end
  else begin
    Span.enter r.spans r.n_decode;
    let msg =
      if f.Gen.announce then
        match Codec.decode_robust f.Gen.wire with
        | Ok (ia, []) when Ia.next_hop ia <> None -> Some (Speaker.Announce ia)
        | _ -> None
      else
        match Codec.decode_withdraw_robust f.Gen.wire with
        | Ok (p, []) -> Some (Speaker.Withdraw p)
        | _ -> None
    in
    Span.leave r.spans;
    match msg with
    | None -> fail r
    | Some m ->
      Span.enter r.spans r.n_ingest;
      Speaker.ingest sp ~from m;
      Span.leave r.spans
  end

(* Flush the dirty set and serialise every emission. *)
let flush_and_encode r sp =
  let out = in_span r r.n_flush (Speaker.flush ?now:None) sp in
  List.fold_left
    (fun acc ((p : Peer.t), msg) ->
      let w =
        match msg with
        | Speaker.Announce ia -> in_span r r.n_encode Codec.encode ia
        | Speaker.Withdraw prefix -> Codec.encode_withdraw prefix
      in
      (p, w) :: acc)
    [] out

let digest_wires r wires =
  List.iter
    (fun ((p : Peer.t), w) ->
      r.digest <- mix (mix r.digest (Ipv4.to_int p.Peer.addr)) (Hashtbl.hash w))
    wires;
  r.emits <- r.emits + List.length wires

let speaker_step r sp (frames : Gen.frame array) lo hi =
  step_begin r;
  for j = lo to hi - 1 do
    feed r sp frames.(j)
  done;
  let wires = flush_and_encode r sp in
  step_end r;
  r.updates <- r.updates + (hi - lo);
  r.attempted <- r.attempted + (hi - lo);
  digest_wires r wires;
  end_step_digest r

(* Untimed bulk load through the same entry points. *)
let load_table sp (frames : Gen.frame array) ~chunk =
  let r = new_run ~traced:false in
  let n = Array.length frames in
  let lo = ref 0 in
  while !lo < n do
    let hi = min n (!lo + chunk) in
    for j = !lo to hi - 1 do
      feed r sp frames.(j)
    done;
    ignore (flush_and_encode r sp);
    lo := hi
  done;
  r.failed

(* The Loc-RIB holds exactly the prefixes some neighbour still
   announces, and each best route is that neighbour's current path and
   of minimal AS-path length among the live candidates. *)
let check_table (t : Gen.table) sp =
  let bad = ref 0 and live = ref 0 in
  Array.iteri
    (fun i p ->
      match (Gen.best_holders t i, Speaker.best sp p) with
      | [], None -> ()
      | [], Some _ | _ :: _, None -> incr bad
      | who, Some c ->
        incr live;
        let cand = c.Speaker.candidate in
        let ok =
          match cand.Dbgp_core.Decision_module.from_peer with
          | None -> false
          | Some from ->
            List.exists
              (fun k ->
                Peer.equal from (Gen.peer k)
                && cand.Dbgp_core.Decision_module.ia.Ia.path_vector
                   = t.Gen.cur.((i * t.Gen.peers) + k))
              who
        in
        if not ok then incr bad)
    t.Gen.prefixes;
  if List.length (Speaker.best_routes sp) <> !live then incr bad;
  !bad

let speaker_counts sp = read_counts (count (Speaker.metrics sp))

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)

type size = Full | Small

type budget = Seconds of float | Passes of int | Steps of int

let continue_phase r budget ~done_ =
  match budget with
  | Seconds s -> done_ = 0 || seconds_since r.phase_t0 < s
  | Passes n | Steps n -> done_ < n

(* Results of one workload at one trace setting. *)
type outcome = {
  runs : run list;  (* timed phases, untraced first *)
  setup_s : float list;
  live_per_route : float;
  live_total : int;
  problems : string list;
}

(* A workload: a timed set-up that leaves fresh state, a timed phase
   over that state, and the program state live memory is counted
   against. *)
type workload = {
  setup : unit -> float;
  phase : traced:bool -> budget:budget -> run * string list;
  release : unit -> unit;  (* drop the trace and the model *)
  routes : unit -> int;  (* Adj-RIB-In routes the program holds *)
  state_at_setup : bool;
      (* count live memory as set-up leaves it, not after the timed
         phase: for state that grows with the number of steps run, which
         a time budget makes depend on host speed *)
}

(* Live words over [base] and routes held.  The program state is
   reachable only through [w]; reading the routes after the measurement
   keeps it alive across the full GC. *)
let state_words w base =
  let live = live_words () - base in
  (live, w.routes ())

(* [setups] set-ups are timed, half of them before the timed phase and
   the rest after it (each from a clean slate), so that their median
   spans two stretches of host speed instead of one. *)
let run_phases w ~trace ~budget ~setups =
  let base = live_words () in
  let setup_s = List.init ((setups + 1) / 2) (fun _ -> w.setup ()) in
  if not trace then begin
    let at_setup = if w.state_at_setup then Some (state_words w base) else None in
    let r, problems = w.phase ~traced:false ~budget in
    w.release ();
    let live, routes =
      match at_setup with Some m -> m | None -> state_words w base
    in
    let setup_s = setup_s @ List.init (setups / 2) (fun _ -> w.setup ()) in
    { runs = [ r ]; setup_s; live_per_route = ratio (fi live) (fi routes);
      live_total = live; problems }
  end
  else begin
    (* Both halves start from the same fresh state. *)
    let half = match budget with Seconds s -> Seconds (s /. 2.) | b -> b in
    let r0, p0 = w.phase ~traced:false ~budget:half in
    ignore (w.setup ());
    let r1, p1 = w.phase ~traced:true ~budget:half in
    { runs = [ r0; r1 ]; setup_s; live_per_route = 0.; live_total = 0;
      problems = p0 @ p1 }
  end

(* --- beagle-*: the §5 replay into one speaker --- *)

type beagle = {
  prefixes : int;
  desc_bytes : int;
  chunk : int;
}

type beagle_state = {
  mutable table : Gen.table option;
  mutable frames : Gen.frame array;
  mutable spare : Dbgp_core.Speaker.t option;
  mutable last : Dbgp_core.Speaker.t option;
}

let beagle_setup cfg ~seed st =
  st.table <- None;
  st.frames <- [||];
  st.spare <- None;
  st.last <- None;
  Gc.full_major ();
  reset_globals ();
  let t0 = Span.now_ns () in
  let rng = Prng.create seed in
  let t =
    Gen.table rng ~seed ~prefixes:cfg.prefixes ~peers:6 ~holders:3
      ~desc_bytes:cfg.desc_bytes
  in
  let frames = Gen.replay rng t ~replace:0.25 ~withdraw:0.10 in
  let sp = new_speaker 6 in
  let dt = seconds_since t0 in
  st.table <- Some t;
  st.frames <- frames;
  st.spare <- Some sp;
  dt

let beagle_phase cfg st ~traced ~budget =
  let r = new_run ~traced in
  let t = Option.get st.table in
  let frames = st.frames in
  let n = Array.length frames in
  let passes = ref 0 in
  let problems = ref [] in
  let pass_digests = ref [] in
  while continue_phase r budget ~done_:!passes do
    st.last <- None;
    reset_globals ();
    let sp =
      match st.spare with
      | Some sp ->
        st.spare <- None;
        sp
      | None -> new_speaker 6
    in
    Gc.full_major ();
    r.digest <- 0;
    let lo = ref 0 in
    while !lo < n do
      let hi = min n (!lo + cfg.chunk) in
      speaker_step r sp frames !lo hi;
      lo := hi
    done;
    let bad = check_table t sp in
    if bad > 0 then
      problems :=
        Printf.sprintf "%d Loc-RIB entries differ from the trace" bad :: !problems;
    pass_digests := r.digest :: !pass_digests;
    r.counts <- add_counts r.counts (speaker_counts sp);
    r.occupancy <- max r.occupancy (Attr_table.occupancy ());
    st.last <- Some sp;
    incr passes
  done;
  end_phase r;
  ( match !pass_digests with
    | d :: rest when List.exists (( <> ) d) rest ->
      problems := "passes over the same trace emitted different frames" :: !problems
    | _ -> () );
  if r.emits = 0 then problems := "no emitted frames" :: !problems;
  (r, !problems)

let beagle cfg ~seed =
  let st = { table = None; frames = [||]; spare = None; last = None } in
  { setup = (fun () -> beagle_setup cfg ~seed st);
    phase = beagle_phase cfg st;
    release =
      (fun () ->
        st.table <- None;
        st.frames <- [||]);
    routes = (fun () -> Speaker.ia_db_size (Option.get st.last));
    state_at_setup = false }

(* --- fib-churn: writes beside longest-prefix-match reads --- *)

type fib = { f_prefixes : int; f_chunk : int; f_lookups : int }

type fib_state = {
  mutable f_table : Gen.table option;
  mutable stream : Gen.stream option;
  mutable f_sp : Dbgp_core.Speaker.t option;
  mutable load_failed : int;
}

let fib_setup cfg ~seed st =
  st.f_table <- None;
  st.stream <- None;
  st.f_sp <- None;
  Gc.full_major ();
  reset_globals ();
  let t0 = Span.now_ns () in
  let rng = Prng.create seed in
  let t =
    Gen.table rng ~seed ~prefixes:cfg.f_prefixes ~peers:2 ~holders:2
      ~desc_bytes:0
  in
  let sp = new_speaker 2 in
  let failed = load_table sp (Gen.load rng t) ~chunk:cfg.f_chunk in
  let dt = seconds_since t0 in
  st.f_table <- Some t;
  st.stream <- Some (Gen.stream rng t ~pool:512);
  st.f_sp <- Some sp;
  st.load_failed <- st.load_failed + failed;
  dt

let fib_phase cfg st ~traced ~budget =
  let r = new_run ~traced in
  let t = Option.get st.f_table in
  let s = Option.get st.stream in
  let sp = Option.get st.f_sp in
  let base = speaker_counts sp in
  let results = Array.make cfg.f_lookups None in
  while continue_phase r budget ~done_:(steps r) do
    let frames = Gen.churn s ~withdraw:0.2 cfg.f_chunk in
    let addrs = Gen.lookups s cfg.f_lookups in
    step_begin r;
    for j = 0 to cfg.f_chunk - 1 do
      feed r sp frames.(j)
    done;
    let wires = flush_and_encode r sp in
    (* The first lookup after a write rebuilds the FIB trie. *)
    results.(0) <- in_span r r.n_first_lookup (Speaker.next_hop_of sp) addrs.(0);
    if r.traced then Span.enter r.spans r.n_warm_lookups;
    for j = 1 to cfg.f_lookups - 1 do
      results.(j) <- Speaker.next_hop_of sp addrs.(j)
    done;
    if r.traced then Span.leave r.spans;
    step_end r;
    r.updates <- r.updates + cfg.f_chunk;
    r.warm_lookups <- r.warm_lookups + cfg.f_lookups - 1;
    r.attempted <- r.attempted + cfg.f_chunk + cfg.f_lookups;
    Array.iteri
      (fun j addr ->
        let expected = Gen.expected_next_hops t addr in
        let ok =
          match results.(j) with
          | None -> expected = []
          | Some nh -> List.exists (Ipv4.equal nh) expected
        in
        if not ok then fail r)
      addrs;
    digest_wires r wires;
    end_step_digest r
  done;
  end_phase r;
  r.counts <- sub_counts (speaker_counts sp) base;
  r.occupancy <- Attr_table.occupancy ();
  let bad = check_table t sp in
  let problems =
    (if bad > 0 then [ Printf.sprintf "%d Loc-RIB entries differ from the model" bad ]
     else [])
    @ (if st.load_failed > 0 then
         [ Printf.sprintf "%d table-load frames rejected" st.load_failed ]
       else [])
    @ if r.emits = 0 then [ "no emitted frames" ] else []
  in
  (r, problems)

let fib cfg ~seed =
  let st = { f_table = None; stream = None; f_sp = None; load_failed = 0 } in
  { setup = (fun () -> fib_setup cfg ~seed st);
    phase = fib_phase cfg st;
    release =
      (fun () ->
        st.f_table <- None;
        st.stream <- None);
    routes = (fun () -> Speaker.ia_db_size (Option.get st.f_sp));
    state_at_setup = false }

(* --- brite-flap: link flaps on a simulated BRITE topology --- *)

type brite = { ases : int; originated : int; mrai : float; checked : int }

type brite_net = {
  net : Network.t;
  edges : (Asn.t * Asn.t) array;
  origins : (Prefix.t * Asn.t) array;
  cold_exhausted : bool;
}

(* The topology is one BRITE graph, as in the paper's evaluation, built
   at a fixed generator seed: across BRITE seeds the work per flap moves
   by a fifth or more, which would swamp any change worth measuring.
   The run's seed picks the origin ASes (stubs, where most real prefixes
   originate) and the flap order.  The flapped edges are the origins'
   access links, so every step is one prefix's re-convergence across the
   network — the classic Tdown/Tup experiment. *)
let topology_seed = 42

(* [k] stubs, stratified by their number of access links: the stubs,
   sorted by that count, are cut into [k] equal slices and the seed picks
   one stub from each.  A flap's work depends mostly on how many other
   links the origin keeps, and a plain random draw let the share of
   multi-homed origins, and with it the step-time tail, move by a tenth
   or more between seeds. *)
let pick_origins rng g k =
  let stubs =
    Graph.stubs g
    |> List.map (fun a -> (Graph.degree g a, a))
    |> List.sort compare |> Array.of_list
  in
  let n = Array.length stubs in
  let k = min k n in
  Array.init k (fun j ->
      let lo = j * n / k and hi = (j + 1) * n / k in
      snd stubs.(lo + Prng.int rng (hi - lo)))

let brite_build cfg ~seed =
  let g =
    Brite.generate (Prng.create topology_seed)
      { Brite.default with Brite.n = cfg.ases }
  in
  let rng = Prng.create seed in
  let net = Network.create () in
  for i = 1 to Graph.size g do
    ignore (Dbgp_eval.Harness.add_as net i)
  done;
  Graph.fold_edges
    (fun a b view () ->
      let rel =
        match view with
        | Graph.Customer_of_me -> Dbgp_bgp.Policy.To_customer
        | Graph.Provider_of_me -> Dbgp_bgp.Policy.To_provider
        | Graph.Peer_of_me -> Dbgp_bgp.Policy.To_peer
      in
      Network.link net ~a:(Asn.of_int (a + 1)) ~b:(Asn.of_int (b + 1))
        ~b_is:rel ())
    g ();
  Network.set_mrai net cfg.mrai;
  let chosen = pick_origins rng g cfg.originated in
  let origins =
    Array.mapi
      (fun i a ->
        let prefix = Prefix.of_string (Printf.sprintf "99.%d.0.0/24" i) in
        let origin = Asn.of_int (a + 1) in
        Network.originate net origin
          (Ia.originate ~prefix ~origin_asn:origin
             ~next_hop:(Network.speaker_addr origin) ());
        (prefix, origin))
      chosen
  in
  let edges =
    Array.to_list chosen
    |> List.concat_map (fun a ->
           List.map
             (fun (b, _) -> (Asn.of_int (a + 1), Asn.of_int (b + 1)))
             (Graph.neighbors g a))
    |> Array.of_list
  in
  Prng.shuffle rng edges;
  let cold = Network.run net in
  { net; edges; origins; cold_exhausted = cold.Network.exhausted }

let brite_setup cfg ~seed (st : brite_net option ref) =
  st := None;
  Gc.full_major ();
  reset_globals ();
  let t0 = Span.now_ns () in
  let b = brite_build cfg ~seed in
  let dt = seconds_since t0 in
  st := Some b;
  dt

let net_counts net = read_counts (Network.counter_total net)

let brite_phase cfg (b : brite_net) ~seed ~traced ~budget =
  let r = new_run ~traced in
  let net = b.net in
  let messages = Metrics.counter (Network.metrics net) "net.messages" in
  let flushes = Metrics.counter (Network.metrics net) "net.mrai_flushes" in
  let base = net_counts net in
  let exhausted = ref 0 in
  let m = Array.length b.edges in
  while continue_phase r budget ~done_:(steps r) do
    let j = steps r in
    let a, z = b.edges.(j / 2 mod m) in
    let msgs0 = Metrics.count messages and fl0 = Metrics.count flushes in
    step_begin r;
    if j mod 2 = 0 then in_span r r.n_fail (Network.fail_link net a) z
    else in_span r r.n_recover (Network.recover_link net a) z;
    let st = in_span r r.n_run (Network.run ?max_events:None) net in
    step_end r;
    let msgs = Metrics.count messages - msgs0 in
    r.updates <- r.updates + msgs;
    r.attempted <- r.attempted + 1;
    r.events <- r.events + st.Network.events;
    r.flushes <- r.flushes + (Metrics.count flushes - fl0);
    if st.Network.exhausted then incr exhausted;
    r.digest <- mix (mix r.digest msgs) st.Network.events;
    end_step_digest r
  done;
  end_phase r;
  r.failed <- r.failed + !exhausted;
  r.counts <- sub_counts (net_counts net) base;
  r.occupancy <- Attr_table.occupancy ();
  (* Safety invariants for seeded prefixes, over every AS. *)
  let rng = Prng.create (seed + 1) in
  let picks =
    Prng.sample rng (min cfg.checked (Array.length b.origins)) b.origins
  in
  let violations =
    Array.fold_left
      (fun acc (prefix, _) ->
        let dest = Ipv4.of_int (Ipv4.to_int (Prefix.network prefix) + 1) in
        let rep = Dbgp_eval.Invariants.check ~prefix ~dest net in
        acc + List.length rep.Dbgp_eval.Invariants.violations)
      0 picks
  in
  let problems =
    (if !exhausted > 0 then [ Printf.sprintf "%d runs exhausted" !exhausted ] else [])
    @ (if violations > 0 then [ Printf.sprintf "%d invariant violations" violations ]
       else [])
    @ if b.cold_exhausted then [ "cold convergence exhausted" ] else []
  in
  (r, problems)

let brite cfg ~seed =
  let st = ref None in
  let net () = (Option.get !st).net in
  { setup = (fun () -> brite_setup cfg ~seed st);
    phase =
      (fun ~traced ~budget -> brite_phase cfg (Option.get !st) ~seed ~traced ~budget);
    release = ignore;
    routes =
      (fun () ->
        List.fold_left
          (fun acc a -> acc + Speaker.ia_db_size (Network.speaker (net ()) a))
          0 (Network.asns (net ())));
    (* The network's live memory grows with every flap. *)
    state_at_setup = true }

(* ------------------------------------------------------------------ *)
(* Metrics                                                              *)

type metric = string * float * string

let updates_per_s r =
  let ns = ref 0 in
  for i = 0 to steps r - 1 do
    ns := !ns + Ivec.get r.step_ns i
  done;
  ratio (fi r.updates) (fi !ns /. 1e9)

let end_to_end (o : outcome) : metric list =
  let r = List.hd o.runs in
  [ ("updates_per_s", updates_per_s r, "1/s");
    ("step_p50_ms", fi (percentile r.step_ns 0.50) /. 1e6, "ms");
    ("step_p90_ms", fi (percentile r.step_ns 0.90) /. 1e6, "ms");
    ("alloc_words_per_update", ratio r.alloc_words (fi r.updates), "words");
    ("live_words_per_route", o.live_per_route, "words");
    ("setup_s", median o.setup_s, "s") ]

let hit_rate counts name =
  let c n = fi (List.assoc n counts) in
  ratio (c (name ^ ".hits")) (c (name ^ ".hits") +. c (name ^ ".misses"))

let per_layer (o : outcome) : metric list =
  let untraced, r =
    match o.runs with [ a; b ] -> (a, b) | _ -> invalid_arg "per_layer"
  in
  let sp = r.spans in
  let u = fi r.updates and s = fi (steps r) in
  let c n = fi (List.assoc n r.counts) in
  let span_us n = fi (Span.total_ns sp n) /. 1e3 in
  let per_call_ns n = ratio (fi (Span.total_ns sp n)) (fi (Span.calls sp n)) in
  (* Both halves start from the same state and run the same step
     sequence, so the overhead compares them over the steps both ran. *)
  let common = min (steps untraced) (steps r) in
  let time_of (x : run) =
    let ns = ref 0 in
    for i = 0 to common - 1 do
      ns := !ns + Ivec.get x.step_ns i
    done;
    fi !ns
  in
  [ ("codec.decode_us_per_update", ratio (span_us r.n_decode) u, "us");
    ("speaker.ingest_us_per_update", ratio (span_us r.n_ingest) u, "us");
    ("speaker.flush_us_per_update", ratio (span_us r.n_flush) u, "us");
    ("codec.encode_us_per_emit", per_call_ns r.n_encode /. 1e3, "us");
    ("fib.first_lookup_ms", per_call_ns r.n_first_lookup /. 1e6, "ms");
    ( "fib.warm_lookup_ns",
      ratio (fi (Span.total_ns sp r.n_warm_lookups)) (fi r.warm_lookups),
      "ns" );
    ("network.run_ms_per_step", ratio (span_us r.n_run /. 1e3) s, "ms");
    ("sim.events_per_step", ratio (fi r.events) s, "count");
    (* brite-flap's updates are the messages its network delivered; the
       other workloads run no network and have no events. *)
    ("net.messages_per_step", (if r.events > 0 then ratio u s else 0.), "count");
    ("net.mrai_flushes_per_step", ratio (fi r.flushes) s, "count");
    ("emits_per_update", ratio (fi r.emits) u, "count");
    ("decision.runs_per_update", ratio (c "decision.runs") u, "count");
    ("pipeline.runs_saved", ratio (c "pipeline.runs_saved") u, "count/update");
    ("export_cache.hit_rate", hit_rate r.counts "pipeline.export_cache", "ratio");
    ("encode_cache.hit_rate", hit_rate r.counts "wire.encode_cache", "ratio");
    ("decode_memo.hit_rate", hit_rate r.counts "wire.decode_memo", "ratio");
    ("attr_table.hit_rate", hit_rate r.counts "attr_table", "ratio");
    ("attr_table.overflow", c "attr_table.overflow", "count");
    ("attr_table.occupancy", fi r.occupancy, "count");
    ("updates.duplicate_per_update", ratio (c "updates.duplicate") u, "count");
    ("gc.minor_words_per_update", ratio r.minor_words u, "words");
    ("gc.major_collections_per_step", ratio (fi r.major_collections) s, "count");
    ( "step.residual_self_us",
      ratio (fi (Span.self_ns sp r.n_step) /. 1e3) s,
      "us" );
    ("trace.overhead_pct", 100. *. (ratio (time_of r) (time_of untraced) -. 1.), "%");
    ("step.samples", s, "count") ]

(* ------------------------------------------------------------------ *)
(* Workload registry and output                                         *)

let workload_names = [ "beagle-bgp"; "beagle-ia32k"; "brite-flap"; "fib-churn" ]

(* Full size is the benchmark; small size is the self-test's, with a
   fixed amount of work instead of a time budget. *)
let run_workload name size ~seed ~seconds ~trace =
  let full = size = Full in
  (* Set-up is repeated and its median reported; the cheap set-ups are
     repeated more often, since one of them is only a fraction of a
     second and noisier. *)
  let setups n = if trace || not full then 1 else n in
  let budget fixed = if full then Seconds seconds else fixed in
  match name with
  | "beagle-bgp" ->
    let cfg =
      if full then { prefixes = 50_000; desc_bytes = 0; chunk = 256 }
      else { prefixes = 2_000; desc_bytes = 0; chunk = 64 }
    in
    run_phases (beagle cfg ~seed) ~trace ~budget:(budget (Passes 1)) ~setups:(setups 6)
  | "beagle-ia32k" ->
    let cfg =
      if full then { prefixes = 2_000; desc_bytes = 32 * 1024; chunk = 32 }
      else { prefixes = 200; desc_bytes = 32 * 1024; chunk = 16 }
    in
    run_phases (beagle cfg ~seed) ~trace ~budget:(budget (Passes 1)) ~setups:(setups 6)
  | "brite-flap" ->
    let cfg =
      if full then { ases = 1000; originated = 128; mrai = 2.0; checked = 8 }
      else { ases = 100; originated = 16; mrai = 2.0; checked = 4 }
    in
    run_phases (brite cfg ~seed) ~trace ~budget:(budget (Steps 40)) ~setups:(setups 4)
  | "fib-churn" ->
    let cfg =
      if full then { f_prefixes = 50_000; f_chunk = 256; f_lookups = 1024 }
      else { f_prefixes = 2_000; f_chunk = 64; f_lookups = 256 }
    in
    run_phases (fib cfg ~seed) ~trace ~budget:(budget (Steps 20)) ~setups:(setups 4)
  | _ -> invalid_arg ("unknown workload " ^ name)

(* Traced and untraced halves must emit the same frames for the steps
   both ran. *)
let digest_problems (o : outcome) =
  match o.runs with
  | [ a; b ] ->
    let n = min (Ivec.length a.digests) (Ivec.length b.digests) in
    let rec diff i =
      i < n && (Ivec.get a.digests i <> Ivec.get b.digests i || diff (i + 1))
    in
    if n = 0 then [ "no step ran in both halves" ]
    else if diff 0 then [ "traced and untraced runs emitted different frames" ]
    else []
  | _ -> []

let out_dir = Filename.concat "perfbench" "out"

let write_trace name ~seed (o : outcome) =
  match o.runs with
  | [ _; r ] ->
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    let base = Filename.concat out_dir (Printf.sprintf "%s-seed%d" name seed) in
    Span.write r.spans (base ^ ".spans.tsv");
    let table = Format.asprintf "%a" Span.pp_table (r.spans, r.n_step) in
    let oc = open_out (base ^ ".selftime.txt") in
    output_string oc table;
    close_out oc;
    Printf.eprintf
      "%s: per-layer self time (traced half, %d steps; %d spans kept, %d beyond the cap)\n%s%!"
      name (steps r) r.spans.Span.kept r.spans.Span.dropped table
  | _ -> ()

let pp_metrics name metrics =
  List.iter
    (fun (m, v, unit) -> Printf.eprintf "%-14s %-34s %16.6g %s\n" name m v unit)
    metrics;
  flush stderr

let number v =
  if Float.is_finite v then
    let s = Printf.sprintf "%.17g" v in
    if String.contains s '.' || String.contains s 'e' then s else s ^ ".0"
  else "0"

let json_line ~correct ~attempted ~failed (metrics : metric list) =
  let m =
    List.map
      (fun (n, v, u) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" n (number v) u)
      metrics
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed (String.concat ", " m)

(* The deterministic counts the self-test compares between two runs. *)
let counts_line (o : outcome) =
  let r = List.hd o.runs in
  Printf.sprintf
    "counts alloc_words=%.0f live_words=%d decision_runs=%d updates=%d emits=%d digest=%d"
    r.alloc_words o.live_total
    (List.assoc "decision.runs" r.counts)
    r.updates r.emits r.digest

type verdict = { ok : bool; attempted : int; failed : int; metrics : metric list }

let measure name size ~seed ~seconds ~trace ~prefix =
  let o = run_workload name size ~seed ~seconds ~trace in
  let rejected =
    List.fold_left (fun a (r : run) -> a + List.assoc "import.rejected" r.counts) 0 o.runs
  in
  let rejections =
    if rejected > 0 then [ Printf.sprintf "%d updates rejected by import policy" rejected ]
    else []
  in
  let problems = o.problems @ digest_problems o @ rejections in
  let attempted = List.fold_left (fun a (r : run) -> a + r.attempted) 0 o.runs in
  let failed = List.fold_left (fun a (r : run) -> a + r.failed) 0 o.runs in
  List.iter (fun p -> Printf.eprintf "%s: CHECK FAILED: %s\n%!" name p) problems;
  if failed > 0 then
    Printf.eprintf "%s: %d of %d operations failed\n%!" name failed attempted;
  let metrics = if trace then per_layer o else end_to_end o in
  if trace then write_trace name ~seed o
  else if size = Small then print_endline (counts_line o);
  pp_metrics name metrics;
  Printf.eprintf "%s: %d steps timed\n%!" name (steps (List.hd o.runs));
  let metrics = List.map (fun (n, v, u) -> (prefix ^ n, v, u)) metrics in
  { ok = problems = [] && failed = 0; attempted; failed; metrics }

(* ------------------------------------------------------------------ *)
(* Self-test: each workload twice at small size, in fresh processes,
   must repeat its deterministic counts exactly.                        *)

let run_child args =
  let argv = Array.of_list (Sys.executable_name :: args) in
  let ic = Unix.open_process_args_in Sys.executable_name argv in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' in
  let status = Unix.close_process_in ic in
  (status = Unix.WEXITED 0, lines)

let self_test () =
  let ok = ref true in
  List.iter
    (fun w ->
      let args trace =
        [ "--workload"; w; "--seed"; "3"; "--size"; "small"; "--trace"; trace ]
      in
      let counts (good, lines) =
        (good, List.find_opt (fun l -> String.starts_with ~prefix:"counts " l) lines)
      in
      let g1, c1 = counts (run_child (args "0")) in
      let g2, c2 = counts (run_child (args "0")) in
      let g3, _ = run_child (args "1") in
      let same = c1 <> None && c1 = c2 in
      Printf.printf "%-14s runs %s, traced run %s, counts %s\n  %s\n%!" w
        (if g1 && g2 then "correct" else "FAILED")
        (if g3 then "correct" else "FAILED")
        (if same then "repeat" else "DIFFER")
        (Option.value c1 ~default:"(none)");
      if not (g1 && g2 && g3 && same) then ok := false)
    workload_names;
  print_endline (if !ok then "self-test passed" else "self-test FAILED");
  if not !ok then exit 1

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and size = ref "full" and selftest = ref false in
  Arg.parse
    [ ( "--workload",
        Arg.Set_string workload,
        " beagle-bgp | beagle-ia32k | brite-flap | fib-churn | all" );
      ("--seed", Arg.Set_int seed, " input seed");
      ("--seconds", Arg.Set_float seconds, " timed seconds per run");
      ("--trace", Arg.Set_int trace, " 0: end-to-end metrics; 1: per-layer metrics");
      ("--size", Arg.Set_string size, " full | small");
      ("--self-test", Arg.Set selftest, " run the determinism self-test") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1";
  if !selftest then self_test ()
  else begin
    let size =
      match !size with
      | "full" -> Full
      | "small" -> Small
      | s -> raise (Arg.Bad ("unknown size " ^ s))
    in
    if !trace <> 0 && !trace <> 1 then raise (Arg.Bad "--trace takes 0 or 1");
    if !seconds <= 0. then raise (Arg.Bad "--seconds must be positive");
    let names, prefixed =
      if !workload = "all" then (workload_names, true)
      else if List.mem !workload workload_names then ([ !workload ], false)
      else raise (Arg.Bad ("unknown workload " ^ !workload))
    in
    let verdicts =
      List.map
        (fun w ->
          measure w size ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
            ~prefix:(if prefixed then w ^ "/" else ""))
        names
    in
    let ok = List.for_all (fun v -> v.ok) verdicts in
    print_endline
      (json_line ~correct:ok
         ~attempted:(List.fold_left (fun a v -> a + v.attempted) 0 verdicts)
         ~failed:(List.fold_left (fun a v -> a + v.failed) 0 verdicts)
         (List.concat_map (fun v -> v.metrics) verdicts));
    if not ok then exit 1
  end
