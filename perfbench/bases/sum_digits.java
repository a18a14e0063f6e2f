static int sumDigits(int n) {
    int result = 0;
    while (n > 0) {
        result = result + n % 10;
        n = n / 10;
    }
    return result;
}
