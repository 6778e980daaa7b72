; Short-lived garbage churned while a survivor list keeps growing: the
; engines must collect the churn, keep every survivor, and report
; identical sup/steps/collected.
(define (f n)
  (define (make k)
    (if (zero? k) '() (cons k (make (- k 1)))))
  (define (go i keep)
    (if (zero? i)
        (length keep)
        (begin
          (make 9)
          (go (- i 1) (cons i keep)))))
  (go (* n 6) '()))
