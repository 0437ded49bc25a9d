type event =
  | Session_state of { asn : int; peer : int; state : string }
  | Update_sent of { src : int; dst : int; prefix : string; bytes : int; withdraw : bool }
  | Update_received of { src : int; dst : int; prefix : string; bytes : int; withdraw : bool }
  | Decision_run of { asn : int; prefix : string; changed : bool; best_via : int option }
  | Mrai_flush of { src : int; dst : int; batched : int }
  | Damping_suppress of { asn : int; peer : int; prefix : string; reuse_at : float }
  | Damping_reuse of { asn : int; prefix : string }
  | Restart_phase of { asn : int; peer : int; phase : string; routes : int }
  | Import_rejected of { asn : int; peer : int; prefix : string }
  | Rx_error of { asn : int; peer : int; cls : string; stage : string; reason : string }

type entry = { at : float; event : event }

(* The ring is two parallel arrays rather than an array of boxed
   entries: a [float array] stores times unboxed, so an emit writes two
   slots and allocates nothing once the ring has grown, and a retained
   entry costs its two slots plus the event itself. *)
type t = {
  cap : int;
  (* Grown geometrically up to [cap] as events arrive, so the many
     mostly-quiet speakers of an Internet-scale run don't each pay the
     full ring up front. *)
  mutable times : float array;
  mutable events : event array;
  mutable total : int;  (* events ever emitted; write cursor = total mod cap *)
}

let create ?(capacity = 1024) () =
  if capacity <= 0 then invalid_arg "Trace.create: capacity must be positive"
  else { cap = capacity; times = [||]; events = [||]; total = 0 }

let capacity t = t.cap

let emit t ~at event =
  let len = Array.length t.events in
  if len < t.cap && t.total >= len then begin
    (* Doubling keeps the write cursor in bounds: growth fires exactly
       when [total = len], and the new length exceeds [total].  The new
       slots are filled with the event being emitted, so no placeholder
       event is needed. *)
    let nlen = min t.cap (max 16 (2 * len)) in
    let ntimes = Array.make nlen at and nevents = Array.make nlen event in
    Array.blit t.times 0 ntimes 0 len;
    Array.blit t.events 0 nevents 0 len;
    t.times <- ntimes;
    t.events <- nevents
  end;
  let i = t.total mod t.cap in
  t.times.(i) <- at;
  t.events.(i) <- event;
  t.total <- t.total + 1

let entries t =
  let kept = min t.total t.cap in
  let first = t.total - kept in
  List.init kept (fun i ->
      let j = (first + i) mod t.cap in
      { at = t.times.(j); event = t.events.(j) })

let emitted t = t.total
let overwritten t = max 0 (t.total - t.cap)

(* Dropping the arrays releases the retained events; the ring regrows
   from empty on the next emit. *)
let clear t =
  t.times <- [||];
  t.events <- [||];
  t.total <- 0

let label = function
  | Session_state _ -> "session_state"
  | Update_sent _ -> "update_sent"
  | Update_received _ -> "update_received"
  | Decision_run _ -> "decision_run"
  | Mrai_flush _ -> "mrai_flush"
  | Damping_suppress _ -> "damping_suppress"
  | Damping_reuse _ -> "damping_reuse"
  | Restart_phase _ -> "restart_phase"
  | Import_rejected _ -> "import_rejected"
  | Rx_error _ -> "rx_error"
