(* Persistent pool of worker domains for barrier-synchronized rounds.

   The sharded simulator runs thousands of short epochs; spawning a
   domain per epoch would dominate runtime and, worse, discard every
   domain-local cache (intern tables, the codec encode cache)
   between epochs.  The pool instead spawns [size - 1] long-lived
   domains once; member 0 is the calling domain itself, so a pool of
   size 1 degenerates to plain sequential execution with zero spawns.

   Each [run] is one round: all members execute [f member] in
   parallel, and [run] returns only after every member finished.  The
   mutex/condition round handshake doubles as the memory barrier the
   mailbox protocol relies on — writes made by any member during round
   [k] are visible to every member in round [k + 1].

   Exceptions: the first exception raised by any member (lowest member
   index wins, for determinism) is re-raised from [run] after the
   round completes; the pool stays usable. *)

type t = {
  size : int;
  mutex : Mutex.t;
  start : Condition.t;
  finished : Condition.t;
  mutable round : int;            (* incremented per run *)
  mutable job : (int -> unit) option;
  mutable remaining : int;        (* workers still running this round *)
  mutable failures : (int * exn) list;
  mutable stop : bool;
  mutable domains : unit Domain.t array;
}

let size t = t.size

let worker t member =
  let last = ref 0 in
  let continue = ref true in
  while !continue do
    Mutex.lock t.mutex;
    while t.round = !last && not t.stop do
      Condition.wait t.start t.mutex
    done;
    if t.stop then begin
      Mutex.unlock t.mutex;
      continue := false
    end
    else begin
      last := t.round;
      let job = Option.get t.job in
      Mutex.unlock t.mutex;
      let failure = match job member with () -> None | exception e -> Some e in
      Mutex.lock t.mutex;
      (match failure with
      | None -> ()
      | Some e -> t.failures <- (member, e) :: t.failures);
      t.remaining <- t.remaining - 1;
      if t.remaining = 0 then Condition.broadcast t.finished;
      Mutex.unlock t.mutex
    end
  done

let create ~size =
  if size < 1 then invalid_arg "Domain_pool.create: size must be >= 1";
  let t =
    {
      size;
      mutex = Mutex.create ();
      start = Condition.create ();
      finished = Condition.create ();
      round = 0;
      job = None;
      remaining = 0;
      failures = [];
      stop = false;
      domains = [||];
    }
  in
  t.domains <-
    Array.init (size - 1) (fun i -> Domain.spawn (fun () -> worker t (i + 1)));
  t

let run t f =
  if t.size = 1 then f 0
  else begin
    Mutex.lock t.mutex;
    t.job <- Some f;
    t.failures <- [];
    t.remaining <- t.size - 1;
    t.round <- t.round + 1;
    Condition.broadcast t.start;
    Mutex.unlock t.mutex;
    (* The caller is member 0. *)
    let own = match f 0 with () -> None | exception e -> Some e in
    Mutex.lock t.mutex;
    while t.remaining > 0 do
      Condition.wait t.finished t.mutex
    done;
    let failures =
      match own with
      | None -> t.failures
      | Some e -> (0, e) :: t.failures
    in
    t.job <- None;
    Mutex.unlock t.mutex;
    match List.sort (fun (a, _) (b, _) -> Int.compare a b) failures with
    | [] -> ()
    | (_, e) :: _ -> raise e
  end

let map t f =
  let results = Array.make t.size None in
  run t (fun m -> results.(m) <- Some (f m));
  Array.map Option.get results

let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.start;
  Mutex.unlock t.mutex;
  Array.iter Domain.join t.domains;
  t.domains <- [||]
