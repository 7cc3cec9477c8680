let rec same_upto a b i = i < 0 || (a.[i] = b.[i] && same_upto a b (i - 1))

let under root path =
  let n = String.length root in
  root = "/"
  || (String.length path >= n
      && (String.length path = n || path.[n] = '/')
      && same_upto root path (n - 1))

let rec mem roots path =
  match roots with
  | [] -> false
  | root :: rest -> under root path || mem rest path
