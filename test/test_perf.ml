(* Hot-path correctness suite: the properties the allocation work must
   not break.

   - the heap-backed {!Dbgp_netsim.Event_queue} dequeues exactly like a
     Map-based reference model over randomized interleavings, including
     same-time FIFO ties and events scheduled mid-run;
   - the intern tables survive {!Dbgp_core.Speaker.remove_neighbor};
   - the encode cache serves byte-identical (and physically shared)
     wires;
   - wire-faithful delivery ({!Dbgp_netsim.Network.set_wire_delivery})
     converges to the same message/update/event counts as in-memory
     delivery. *)

open Dbgp_types
module Speaker = Dbgp_core.Speaker
module Codec = Dbgp_core.Codec
module Ia = Dbgp_core.Ia
module Peer = Dbgp_core.Peer
module Event_queue = Dbgp_netsim.Event_queue
module Policy = Dbgp_bgp.Policy
module E = Dbgp_eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------- event queue vs reference model ------------------- *)

(* Deterministic splitmix-style PRNG so the 10k interleavings are
   reproducible without depending on qcheck state. *)
let prng seed =
  let state = ref (seed * 2654435761 land 0x3FFFFFFF) in
  fun bound ->
    state := (!state * 1103515245 + 12345) land 0x3FFFFFFF;
    !state mod bound

(* Reference model: a Map keyed by (time, seq) — the documented dequeue
   order.  Both sides schedule the same events (roots up front, children
   from inside executing events, by the same deterministic rule), so the
   execution orders match iff the heap pops in (time, seq) order with
   FIFO ties. *)
module Ref_model = struct
  module M = Map.Make (struct
    type t = float * int

    let compare (t1, s1) (t2, s2) =
      match Float.compare t1 t2 with 0 -> Int.compare s1 s2 | c -> c
  end)

  type t = { mutable pending : int M.t; mutable seq : int }

  let create () = { pending = M.empty; seq = 0 }

  let schedule m ~time id =
    m.pending <- M.add (time, m.seq) id m.pending;
    m.seq <- m.seq + 1

  (* Runs to exhaustion; [child] is consulted on every pop with the
     popped id and its time, returning children to schedule. *)
  let run m ~child =
    let order = ref [] in
    let rec loop () =
      match M.min_binding_opt m.pending with
      | None -> ()
      | Some ((time, seq), id) ->
        m.pending <- M.remove (time, seq) m.pending;
        order := id :: !order;
        List.iter (fun (dt, cid) -> schedule m ~time:(time +. dt) cid)
          (child ~id ~time);
        loop ()
    in
    loop ();
    List.rev !order
end

(* One randomized interleaving: [n] root events over a coarse time grid
   (collisions are the point — same-time events must pop FIFO), where
   some events schedule children mid-run, possibly at zero delay (a
   same-time tie created while that very timestamp is being drained). *)
let one_interleaving seed =
  let rand = prng seed in
  let n = 3 + rand 10 in
  let child_rule ~id ~time:_ =
    (* Depth is encoded in the id: roots are < 1000, children ≥ 1000.
       One generation of children keeps the model finite. *)
    if id < 1000 && (id + seed) mod 3 = 0 then
      [ (float_of_int ((id + seed) mod 4) /. 2., 1000 + id) ]
    else []
  in
  (* Real queue. *)
  let q = Event_queue.create () in
  let order_real = ref [] in
  let rec fire id () =
    order_real := id :: !order_real;
    List.iter
      (fun (dt, cid) -> Event_queue.schedule q ~delay:dt (fire cid))
      (child_rule ~id ~time:(Event_queue.now q))
  in
  let times = Array.init n (fun _ -> float_of_int (rand 5) /. 2.) in
  Array.iteri (fun i t -> Event_queue.schedule_at q ~time:t (fire i)) times;
  let executed = Event_queue.run q in
  (* Reference model, same roots, same child rule. *)
  let m = Ref_model.create () in
  Array.iteri (fun i t -> Ref_model.schedule m ~time:t i) times;
  let order_model = Ref_model.run m ~child:child_rule in
  let order_real = List.rev !order_real in
  if order_real <> order_model then
    Alcotest.failf "seed %d: heap order %s <> model order %s" seed
      (String.concat "," (List.map string_of_int order_real))
      (String.concat "," (List.map string_of_int order_model));
  check_int "executed count" (List.length order_model) executed

let test_heap_matches_reference_model () =
  for seed = 1 to 10_000 do
    one_interleaving seed
  done

let test_budget_exhaustion_signal () =
  let q = Event_queue.create () in
  for i = 1 to 5 do
    Event_queue.schedule q ~delay:(float_of_int i) ignore
  done;
  check_int "bounded run executes the budget" 2
    (Event_queue.run ~max_events:2 q);
  check "budget exhausted reported" true (Event_queue.budget_exhausted q);
  check_int "queue kept the remainder" 3 (Event_queue.pending q);
  check_int "second run drains" 3 (Event_queue.run q);
  check "drained run clears the flag" false (Event_queue.budget_exhausted q);
  (* End to end through Network/Harness: a too-small budget is surfaced,
     the unbounded control is not. *)
  let probe = E.Stress.run_budget_probe ~ases:12 ~budget:5 () in
  check "probe surfaces exhaustion" true probe.E.Stress.budget_exhausted;
  check "probe ran exactly the budget" true (probe.E.Stress.events_run <= 5)

(* ----------------------------- interning ----------------------------- *)

let test_intern_survives_remove_neighbor () =
  let mk n =
    Speaker.create
      (Speaker.config ~passthrough:true ~asn:(Asn.of_int n)
         ~addr:(Ipv4.of_octets 10 0 0 n) ())
  in
  let s = mk 5 in
  let p1 = Peer.make ~asn:(Asn.of_int 1) ~addr:(Ipv4.of_octets 10 0 0 1) in
  let prefix = Prefix.of_string "99.2.0.0/24" in
  let announce () =
    let ia =
      Ia.originate ~prefix ~origin_asn:(Asn.of_int 1)
        ~next_hop:(Ipv4.of_octets 10 0 0 1) ()
    in
    Codec.decode (Codec.encode ia)
  in
  let best_descriptors () =
    match Speaker.best s prefix with
    | Some c ->
      c.Speaker.candidate.Dbgp_core.Decision_module.ia.Ia.path_descriptors
    | None -> Alcotest.fail "route installed"
  in
  let resident = Dbgp_core.Attr_table.occupancy () in
  Speaker.add_neighbor s
    (Speaker.neighbor ~relationship:Policy.To_customer p1);
  ignore (Speaker.receive s ~from:p1 (Speaker.Announce (announce ())));
  let before = best_descriptors () in
  ignore (Speaker.remove_neighbor s p1);
  check "route gone after removal" true (Speaker.best s prefix = None);
  (* The teardown released every attribute set the route held. *)
  check_int "attribute table back to its prior occupancy" resident
    (Dbgp_core.Attr_table.occupancy ());
  (* Re-add and re-learn: the string and descriptor-value intern tables
     were untouched by the teardown, so the re-learned route's
     descriptors share the pre-removal field names and values
     physically, although the decode and the attribute set are new. *)
  Speaker.add_neighbor s
    (Speaker.neighbor ~relationship:Policy.To_customer p1);
  ignore (Speaker.receive s ~from:p1 (Speaker.Announce (announce ())));
  let after = best_descriptors () in
  check_int "same descriptor count" (List.length before) (List.length after);
  List.iter2
    (fun (b : Ia.path_descriptor) (a : Ia.path_descriptor) ->
      check ("field " ^ b.field ^ " physically shared") true (a.field == b.field);
      check ("value of " ^ b.field ^ " physically shared") true
        (a.value == b.value))
    before after

(* --------------------------- encode cache ---------------------------- *)

let test_encode_cache_correct () =
  let ia =
    Ia.originate ~prefix:(Prefix.of_string "99.4.0.0/24")
      ~origin_asn:(Asn.of_int 4) ~next_hop:(Ipv4.of_octets 10 0 0 4) ()
  in
  let raw = Codec.encode ia in
  let c1 = Codec.encode_cached ia in
  let c2 = Codec.encode_cached ia in
  Alcotest.(check string) "cached bytes identical to raw encode" raw c1;
  check "repeat encode served from cache (physically shared)" true (c1 == c2);
  check "size agrees" true (Codec.size ia = String.length raw)

(* ----------------------- wire-delivery equivalence -------------------- *)

let test_wire_delivery_equivalent () =
  let m = E.Perf_bench.run ~ases:40 ~prefixes:8 () in
  let w = E.Perf_bench.run ~ases:40 ~prefixes:8 ~wire:true () in
  check_int "same messages" m.E.Perf_bench.messages w.E.Perf_bench.messages;
  check_int "same updates" m.E.Perf_bench.updates w.E.Perf_bench.updates;
  check_int "same events" m.E.Perf_bench.events w.E.Perf_bench.events

let () =
  Alcotest.run "perf"
    [ ("event-queue",
       [ Alcotest.test_case "heap = Map reference model (10k interleavings)"
           `Quick test_heap_matches_reference_model;
         Alcotest.test_case "budget exhaustion surfaced" `Quick
           test_budget_exhaustion_signal ]);
      ("interning",
       [ Alcotest.test_case "survives remove_neighbor" `Quick
           test_intern_survives_remove_neighbor ]);
      ("wire-caches",
       [ Alcotest.test_case "encode cache correct" `Quick
           test_encode_cache_correct ]);
      ("wire-delivery",
       [ Alcotest.test_case "equivalent to in-memory delivery" `Quick
           test_wire_delivery_equivalent ]) ]
