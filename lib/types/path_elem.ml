type t = As of Asn.t | Island of Island_id.t | As_set of Asn.t list

let as_ a = As a
let island i = Island i
let as_set asns = As_set (List.sort_uniq Asn.compare asns)

let mentions_asn a = function
  | As b -> Asn.equal a b
  | Island _ -> false
  | As_set s -> List.exists (Asn.equal a) s

let mentions_island i = function
  | Island j -> Island_id.equal i j
  | As _ | As_set _ -> false

let compare x y =
  match (x, y) with
  | As a, As b -> Asn.compare a b
  | As _, _ -> -1
  | _, As _ -> 1
  | Island a, Island b -> Island_id.compare a b
  | Island _, _ -> -1
  | _, Island _ -> 1
  | As_set a, As_set b -> List.compare Asn.compare a b

let equal x y = x == y || compare x y = 0

let to_string = function
  | As a -> Asn.to_string a
  | Island i -> Island_id.to_string i
  | As_set s -> "{" ^ String.concat "," (List.map Asn.to_string s) ^ "}"

let pp ppf t = Format.pp_print_string ppf (to_string t)
let path_length path = List.length path

(* Two elements of one path that together make a loop: an AS met again
   (as itself or inside an AS_SET), or an island met again. *)
let clash e e' =
  match e with
  | As a -> mentions_asn a e'
  | As_set s -> List.exists (fun a -> mentions_asn a e') s
  | Island i -> mentions_island i e'

(* Real paths are a handful of hops: compare each element with the ones
   after it, allocating nothing.  Long (hostile) paths take the set
   walk, which stays O(n log n). *)
let short_path = 16

let has_loop path =
  let rec pairwise = function
    | [] -> false
    | e :: rest -> List.exists (clash e) rest || pairwise rest
  in
  let rec go seen_as seen_isl = function
    | [] -> false
    | As a :: rest ->
      Asn.Set.mem a seen_as || go (Asn.Set.add a seen_as) seen_isl rest
    | Island i :: rest ->
      Island_id.Set.mem i seen_isl
      || go seen_as (Island_id.Set.add i seen_isl) rest
    | As_set s :: rest ->
      List.exists (fun a -> Asn.Set.mem a seen_as) s
      || go (List.fold_left (fun acc a -> Asn.Set.add a acc) seen_as s) seen_isl rest
  in
  if List.compare_length_with path short_path <= 0 then pairwise path
  else go Asn.Set.empty Island_id.Set.empty path

let pp_path ppf path =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf " ")
    pp ppf path
